package tcp

import (
	"time"

	"ulp/internal/pkt"
	"ulp/internal/trace"
)

// TW is a connection in TIME_WAIT reduced to what TIME_WAIT needs, as
// 4.4BSD's compact tcptw record is: the endpoints, snd_nxt (which is snd_max:
// our FIN is acknowledged), rcv_nxt (past the peer's FIN), the window, and
// the trace label. Its Input is the one TIME_WAIT segment rule: a Conn in
// TIME_WAIT runs it too (inputTimeWait), on the TW Compact makes of it, so
// a shell may drop the full pcb for this record the moment TIME_WAIT begins
// and keep its 2MSL timer. No segment restarts the 2MSL timer; it expires
// where enterTimeWait armed it, and Close reports the end either way.
type TW struct {
	local, peer    Endpoint
	adv            uint16 // the window its ACKs advertise
	sndNxt, rcvNxt Seq
	rcvWnd         int // free receive space, which segments are tested against
	waitTicks      int // the 2MSL, for a Snapshot
	headroom       int
	bus            *trace.Bus
	label          string
	// Fired is Conn.Fired for the 2MSL expiry.
	Fired time.Duration
}

// Compact returns c's TIME_WAIT state as a TW. c must be in TIME_WAIT;
// its window is what its next ACK would advertise.
func (c *Conn) Compact() TW {
	return TW{
		local: c.local, peer: c.peer,
		adv:    uint16(c.advertisableWindow()),
		sndNxt: c.sndNxt, rcvNxt: c.rcvNxt,
		rcvWnd:    c.rcv.window(),
		waitTicks: c.cfg.TimeWaitTicks,
		headroom:  c.cfg.Headroom,
		bus:       c.bus, label: c.busLabel,
	}
}

// TWReply is what TW.Input made of one segment.
type TWReply struct {
	// Seg is the answer to send, encoded with the connection's headroom,
	// and Hdr its header; Seg is nil when the segment is answered by
	// nothing.
	Seg *pkt.Buf
	Hdr Header
	// Closed reports that the segment reset the connection: an RST, or a
	// SYN inside the window, which Seg answers with a reset. Err is what
	// the close reports: nil for an RST, ErrReset for a SYN.
	Closed bool
	Err    error
}

// Input applies TIME_WAIT's rule to an arriving segment carrying segLen
// payload bytes, counting into st what a full engine counts:
//   - a segment outside the window (a retransmitted FIN is one) is answered
//     with an ACK, unless it is an RST;
//   - an RST in the window closes the connection;
//   - a SYN in the window is answered with a reset, and closes it;
//   - a segment without ACK is dropped;
//   - an ACK for data never sent, or one carrying data, is answered with an
//     ACK; anything else (an old ACK, the peer's FIN again in the window) with
//     nothing.
func (tw *TW) Input(h Header, segLen int, st *Stats) TWReply {
	st.SegsRcvd++
	if !acceptable(tw.rcvNxt, tw.rcvWnd, h.Seq, segLen) {
		st.BadChecksumOrTrim++
		if h.Flags&FlagRST != 0 {
			return TWReply{}
		}
		return tw.ack(st)
	}
	switch {
	case h.Flags&FlagRST != 0:
		return TWReply{Closed: true}
	case h.Flags&FlagSYN != 0 && tw.rcvNxt.Leq(h.Seq):
		r := TWReply{Closed: true, Err: ErrReset}
		r.Hdr, r.Seg = resetSeg(tw.local, tw.peer, tw.sndNxt, tw.rcvNxt, tw.headroom)
		st.SegsSent++
		return r
	case h.Flags&FlagACK == 0:
		return TWReply{}
	case tw.sndNxt.Less(h.Ack), segLen > 0:
		return tw.ack(st)
	}
	return TWReply{}
}

// ack builds the pure ACK TIME_WAIT answers with: what Output sends for a
// connection with nothing left to send.
func (tw *TW) ack(st *Stats) TWReply {
	h := Header{
		SrcPort: tw.local.Port, DstPort: tw.peer.Port,
		Seq: tw.sndNxt, Ack: tw.rcvNxt,
		Flags:  FlagACK,
		Window: tw.adv,
	}
	b := newSegBuf(tw.headroom, nil)
	h.Encode(b, tw.local.IP, tw.peer.IP)
	st.SegsSent++
	st.AcksSent++
	return TWReply{Seg: b, Hdr: h}
}

// Close ends TIME_WAIT for a shell that holds the compact record: the
// transition to CLOSED is traced as a full engine traces it, and a reset
// (why is TrigReset) counts into st the disarming of the 2MSL timer that the
// expiry (TrigTimer) has no need of.
func (tw *TW) Close(why Trigger, st *Stats) {
	if why != TrigTimer {
		st.TimerOps++
	}
	emitState(tw.bus, tw.label, TimeWait, Closed, why, tw.Fired)
}

// Local and Peer return the connection's endpoints.
func (tw *TW) Local() Endpoint { return tw.local }
func (tw *TW) Peer() Endpoint  { return tw.peer }

// Snapshot is the connection's transferable state, for a compact record
// made of a connection with no unread bytes (so its free receive space is
// the whole buffer): RestoreInto makes of it a pcb in TIME_WAIT that answers
// every segment as this record does, and arms a full 2MSL.
func (tw *TW) Snapshot() Snapshot {
	cfg := Config{RcvBufSize: tw.rcvWnd, Headroom: tw.headroom, TimeWaitTicks: tw.waitTicks}
	cfg.fill()
	return Snapshot{
		Cfg:   cfg,
		Local: tw.local, Peer: tw.peer,
		State:  TimeWait,
		SndUna: tw.sndNxt, SndNxt: tw.sndNxt, SndMax: tw.sndNxt,
		RcvNxt: tw.rcvNxt, RcvAdv: tw.rcvNxt.Add(int(tw.adv)),
		SndMSS: cfg.MSS,
	}
}

// inputTimeWait is Input in TIME_WAIT: the TW rule on c's own state,
// with the ACK bookkeeping Output would do and the close setState does.
func (c *Conn) inputTimeWait(h Header, data []byte) {
	tw := c.Compact()
	r := tw.Input(h, len(data), &c.stats)
	if r.Seg != nil {
		if r.Hdr.Flags&FlagRST == 0 {
			c.ackNow, c.delAck = false, false
			if wa := c.rcvNxt.Add(int(r.Hdr.Window)); c.rcvAdv.Less(wa) {
				c.rcvAdv = wa
			}
		}
		if c.cb.Send != nil {
			c.cb.Send(r.Seg, r.Hdr, 0)
		}
	}
	if r.Closed {
		c.closedErr = r.Err
		c.setState(Closed, TrigReset)
	}
}
