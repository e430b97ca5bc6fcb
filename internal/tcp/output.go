package tcp

import "ulp/internal/pkt"

// Output runs the send policy (the tcp_output engine): it emits as many
// segments as the send window, congestion window, Nagle rule, silly-window
// avoidance and pending control flags allow.
func (c *Conn) Output() { c.output(false) }

// outputForced emits a segment even against a closed window (persist probes
// and retransmissions).
func (c *Conn) outputForced() { c.output(true) }

func (c *Conn) output(force bool) {
	for {
		if !c.outputOne(force) {
			return
		}
		force = false
	}
}

// outputOne builds and sends at most one segment; it reports whether the
// caller should try for another.
func (c *Conn) outputOne(force bool) bool {
	switch c.state {
	case Closed, Listen:
		return false
	}

	idle := c.sndMax == c.sndUna
	win := c.sndWnd
	if c.cwnd < win {
		win = c.cwnd
	}
	if force && win == 0 {
		win = 1 // window probe
	}

	var flags uint8 = FlagACK
	sendSYN := false
	switch c.state {
	case SynSent:
		if c.sndNxt == c.iss {
			sendSYN = true
			flags = FlagSYN // no ACK on the initial SYN
		}
	case SynRcvd:
		if c.sndNxt == c.iss {
			sendSYN = true
			flags = FlagSYN | FlagACK
		}
	}

	// Sendable data.
	length := 0
	var data []byte
	if !sendSYN && c.sndNxt != c.iss {
		inFlight := c.sndNxt.Diff(c.sndUna)
		if inFlight < 0 {
			inFlight = 0
		}
		usable := win - inFlight
		if usable < 0 {
			usable = 0
		}
		avail := c.snd.len() - c.sndNxt.Diff(c.snd.start)
		if avail < 0 {
			avail = 0
		}
		length = avail
		if length > usable {
			length = usable
		}
		if length > c.sndMSS {
			length = c.sndMSS
		}
	}

	// FIN decision: all buffered data at or beyond sndNxt fits in this
	// segment and the application has closed.
	sendFIN := false
	if c.sndClosed && !sendSYN {
		switch c.state {
		case FinWait1, LastAck, Closing:
			remaining := c.snd.len() - c.sndNxt.Diff(c.snd.start)
			if remaining == length {
				if !c.finQueued || c.sndNxt.Add(length) == c.finSeq {
					sendFIN = true
				}
			}
		}
	}

	// Decide whether to transmit.
	send := false
	switch {
	case sendSYN:
		send = true
	case force && (length > 0 || sendFIN || c.snd.len() == 0):
		send = true
	case length >= c.sndMSS:
		send = true
	case length > 0 && (c.cfg.NoDelay || idle):
		send = true // Nagle permits
	case length > 0 && c.maxSndWnd > 0 && length >= c.maxSndWnd/2:
		send = true
	case length > 0 && c.sndNxt.Less(c.sndMax):
		send = true // retransmitting into a known-hole region
	case sendFIN && (!c.finQueued || c.sndNxt == c.finSeq):
		send = true
	case c.ackNow:
		send = true
	}

	// Window-update check: has the window opened enough to tell the peer?
	adv := c.advertisableWindow()
	if !send && adv > 0 {
		opened := adv - c.rcvAdv.Diff(c.rcvNxt)
		if opened >= 2*c.cfg.MSS || opened >= c.cfg.RcvBufSize/2 {
			send = true
		}
	}

	if !send {
		// Nothing to send; if data is pending against a zero window and no
		// retransmission is outstanding, run the persist machinery. Any state
		// that can still emit stream data needs the probe: a close only
		// queues a FIN behind the buffered data, so FIN_WAIT_1, CLOSING,
		// CLOSE_WAIT and LAST_ACK would otherwise deadlock against a lost
		// window update.
		if c.snd.len()-c.sndNxt.Diff(c.snd.start) > 0 && c.sndWnd == 0 &&
			c.tRexmt == 0 && c.tPersist == 0 && canSendData(c.state) {
			c.persistShift = 0
			c.setTimer(&c.tPersist, c.persistBackoff())
		}
		return false
	}

	if length > 0 {
		if sendSYN {
			length = 0
		} else {
			data = c.snd.read(c.sndNxt, length)
			length = len(data)
		}
	}
	if length > 0 && c.sndNxt.Diff(c.snd.start)+length == c.snd.len() {
		flags |= FlagPSH
	}
	if sendFIN {
		flags |= FlagFIN
	}

	// Build the segment.
	h := Header{
		SrcPort: c.local.Port,
		DstPort: c.peer.Port,
		Seq:     c.sndNxt,
		Flags:   flags,
		Window:  uint16(adv),
	}
	if flags&FlagACK != 0 {
		h.Ack = c.rcvNxt
	}
	if sendSYN {
		h.MSS = uint16(c.cfg.MSS)
	}
	b := pkt.FromBytes(c.cfg.Headroom+h.EncodedLen(), data)
	h.Encode(b, c.local.IP, c.peer.IP)

	// Advance send state.
	if c.delAck {
		c.delAck = false
	}
	c.ackNow = false
	startSeq := c.sndNxt
	if sendSYN {
		c.sndNxt = c.sndNxt.Add(1)
	}
	c.sndNxt = c.sndNxt.Add(length)
	if sendFIN {
		if !c.finQueued {
			c.finQueued = true
			c.finSeq = c.sndNxt
		}
		if c.sndNxt == c.finSeq {
			c.sndNxt = c.sndNxt.Add(1)
		}
	}
	newData := c.sndMax.Less(c.sndNxt)
	if newData {
		// Sending new data: start an RTT measurement if none is running.
		if c.tRtt == 0 && (length > 0 || sendSYN || sendFIN) {
			c.tRtt = 1
			c.tRtseq = startSeq
		}
		c.sndMax = c.sndNxt
	}
	// Retransmission timer covers any outstanding sequence space (unless
	// the persist machinery owns the channel).
	if c.tRexmt == 0 && c.tPersist == 0 && c.sndNxt != c.sndUna {
		c.setTimer(&c.tRexmt, c.rxtCur)
	}
	if newData {
		c.armProbe()
	}

	if wa := c.rcvNxt.Add(adv); c.rcvAdv.Less(wa) {
		c.rcvAdv = wa
	}

	c.stats.SegsSent++
	c.stats.BytesSent += int64(length)
	if length == 0 && flags&(FlagSYN|FlagFIN) == 0 {
		c.stats.AcksSent++
	}
	if c.cb.Send != nil {
		c.cb.Send(b, h, length)
	}

	// Another full segment may be waiting.
	return true
}

// canSendData reports whether the state may still emit stream data (and
// therefore needs zero-window probing when data is pending).
func canSendData(s State) bool {
	switch s {
	case Established, FinWait1, CloseWait, Closing, LastAck:
		return true
	}
	return false
}

// advertisableWindow computes the receive window to advertise, applying
// receiver-side silly-window avoidance (never advertise a small increase)
// and never shrinking a previous advertisement.
func (c *Conn) advertisableWindow() int {
	w := c.rcv.window()
	if w > MaxWindow {
		w = MaxWindow
	}
	already := c.rcvAdv.Diff(c.rcvNxt) // previously advertised, still open
	if already < 0 {
		already = 0
	}
	// SWS: suppress dribbling increases, but never shrink.
	if w > already && w-already < c.cfg.MSS && w < c.cfg.RcvBufSize/4 {
		w = already
	}
	if w < already {
		w = already
	}
	return w
}

// sendRST emits a reset for this connection (seq = snd_nxt).
func (c *Conn) sendRST() {
	h, b := resetSeg(c.local, c.peer, c.sndNxt, c.rcvNxt, c.cfg.Headroom)
	c.stats.SegsSent++
	if c.cb.Send != nil {
		c.cb.Send(b, h, 0)
	}
}

// resetSeg builds the reset a connection sends from local to peer when it
// aborts: RST|ACK at seq, acknowledging ack.
func resetSeg(local, peer Endpoint, seq, ack Seq, headroom int) (Header, *pkt.Buf) {
	h := Header{
		SrcPort: local.Port, DstPort: peer.Port,
		Seq: seq, Ack: ack,
		Flags: FlagRST | FlagACK,
	}
	b := pkt.New(headroom+HeaderLen, 0)
	h.Encode(b, local.IP, peer.IP)
	return h, b
}

// sendRSTFor answers an unacceptable segment with the appropriate reset
// (RFC 793 p.36 rules).
func (c *Conn) sendRSTFor(h Header, dataLen int) {
	r, b := MakeRST(h, dataLen, c.cfg.Headroom, c.local, c.peer)
	if r == nil {
		return
	}
	c.stats.SegsSent++
	if c.cb.Send != nil {
		c.cb.Send(b, *r, 0)
	}
}

// newSegBuf allocates a segment buffer with room for a bare TCP header.
func newSegBuf(headroom int, data []byte) *pkt.Buf {
	return pkt.FromBytes(headroom+HeaderLen, data)
}

// MakeRST builds the reset segment answering an arbitrary received segment
// (used both by connections and by shells answering segments that match no
// endpoint). It returns nil if the received segment itself carried RST.
func MakeRST(in Header, dataLen, headroom int, local, peer Endpoint) (*Header, *pkt.Buf) {
	if in.Flags&FlagRST != 0 {
		return nil, nil
	}
	var h Header
	h.SrcPort = local.Port
	h.DstPort = peer.Port
	if in.Flags&FlagACK != 0 {
		h.Seq = in.Ack
		h.Flags = FlagRST
	} else {
		n := dataLen
		if in.Flags&FlagSYN != 0 {
			n++
		}
		if in.Flags&FlagFIN != 0 {
			n++
		}
		h.Ack = in.Seq.Add(n)
		h.Flags = FlagRST | FlagACK
	}
	b := pkt.New(headroom+HeaderLen, 0)
	h.Encode(b, local.IP, peer.IP)
	return &h, b
}
