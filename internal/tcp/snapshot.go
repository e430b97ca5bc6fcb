package tcp

// Snapshot is the transferable state of an established connection. The
// registry server completes the three-way handshake on the application's
// behalf and then transfers the connection to the library ("it takes about
// 1.4 ms to transfer and set up TCP state to user level"); Snapshot/Restore
// realize that handoff. The same mechanism serves connection inheritance in
// the other direction when an application exits and the registry must hold
// the connection through its 2*MSL quiet period.
type Snapshot struct {
	Cfg         Config
	Local, Peer Endpoint
	State       State

	ISS, IRS               Seq
	SndUna, SndNxt, SndMax Seq
	SndWnd                 int
	SndWl1, SndWl2         Seq
	MaxSndWnd              int
	Cwnd, Ssthresh         int
	RcvNxt, RcvAdv         Seq
	SndMSS                 int
	RxtCur                 int
	SRTT, RTTVar           int

	// Unacknowledged send data and unread receive data travel with the
	// connection (normally empty at handoff time).
	SndData  []byte
	SndStart Seq
	RcvReady []byte
}

// Size returns the number of bytes the state transfer moves, for cost
// charging.
func (s *Snapshot) Size() int {
	return 96 + len(s.SndData) + len(s.RcvReady)
}

// Snapshot captures the connection state for transfer.
func (c *Conn) Snapshot() Snapshot {
	return Snapshot{
		Cfg:   c.cfg,
		Local: c.local, Peer: c.peer,
		State: c.state,
		ISS:   c.iss, IRS: c.irs,
		SndUna: c.sndUna, SndNxt: c.sndNxt, SndMax: c.sndMax,
		SndWnd: c.sndWnd, SndWl1: c.sndWl1, SndWl2: c.sndWl2,
		MaxSndWnd: c.maxSndWnd,
		Cwnd:      c.cwnd, Ssthresh: c.ssthresh,
		RcvNxt: c.rcvNxt, RcvAdv: c.rcvAdv,
		SndMSS: c.sndMSS,
		RxtCur: c.rxtCur,
		SRTT:   c.srtt, RTTVar: c.rttvar,
		SndData:  append([]byte(nil), c.snd.data...),
		SndStart: c.snd.start,
		RcvReady: append([]byte(nil), c.rcv.ready...),
	}
}

// RestoreInto builds a live connection from transferred state on a pcb the
// caller supplies (see Conn.Init), attaching the new owner's callbacks. The
// buffered bytes are copied, never shared with the snapshot. Timers restart
// conservatively (a retransmission timer is armed if data is outstanding).
func RestoreInto(c *Conn, s Snapshot, cb Callbacks) {
	c.Init(s.Cfg, s.Local, s.Peer, cb)
	c.state = s.State
	c.iss, c.irs = s.ISS, s.IRS
	c.sndUna, c.sndNxt, c.sndMax = s.SndUna, s.SndNxt, s.SndMax
	c.sndWnd, c.sndWl1, c.sndWl2 = s.SndWnd, s.SndWl1, s.SndWl2
	c.maxSndWnd = s.MaxSndWnd
	c.cwnd, c.ssthresh = s.Cwnd, s.Ssthresh
	c.rcvNxt, c.rcvAdv = s.RcvNxt, s.RcvAdv
	c.sndMSS = s.SndMSS
	c.rxtCur = s.RxtCur
	c.srtt, c.rttvar = s.SRTT, s.RTTVar
	c.snd.data = appendInPlace(&c.snd.buf, nil, s.SndData, c.snd.limit)
	c.snd.start = s.SndStart
	c.rcv.ready = appendInPlace(&c.rcv.buf, nil, s.RcvReady, c.rcv.limit)
	if c.sndNxt != c.sndUna {
		c.startRexmt()
	}
	if c.state == TimeWait {
		c.setTimer(&c.t2MSL, c.cfg.TimeWaitTicks)
	}
	if c.state == Established && c.cfg.KeepAliveTicks > 0 {
		// Restore bypasses setState, which normally arms the keepalive on
		// entering Established; without this a handed-off connection would
		// never detect a dead peer that goes silent right after transfer.
		c.setTimer(&c.tKeep, c.cfg.KeepAliveTicks)
	}
}
