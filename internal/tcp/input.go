package tcp

import "ulp/internal/trace"

// Input processes an arriving segment (header already decoded and checksum
// verified by the shell via Decode). data is the segment payload.
func (c *Conn) Input(h Header, data []byte) {
	c.inInput = true
	defer func() {
		c.inInput = false
		if c.estabPending {
			c.estabPending = false
			if c.cb.OnEstablished != nil {
				c.cb.OnEstablished()
			}
		}
	}()
	c.stats.SegsRcvd++
	c.idleT = 0
	c.keepProbes = 0
	if c.cfg.KeepAliveTicks > 0 && c.state == Established {
		c.setTimer(&c.tKeep, c.cfg.KeepAliveTicks)
	}

	switch c.state {
	case Closed:
		// The shell answers segments to closed endpoints with RST itself
		// (MakeRST); a pcb in Closed silently drops.
		return
	case Listen:
		c.inputListen(h, data)
		return
	case SynSent:
		c.inputSynSent(h, data)
		return
	}

	// --- General case (RFC 793 SEGMENT ARRIVES, states >= SYN_RCVD) -----

	// Trim the segment to the receive window.
	segSeq := h.Seq
	segLen := len(data)
	fin := h.Flags&FlagFIN != 0

	wnd := c.rcv.window()
	// Acceptability test.
	acceptable := false
	switch {
	case segLen == 0 && wnd == 0:
		acceptable = segSeq == c.rcvNxt
	case segLen == 0:
		acceptable = c.rcvNxt.Leq(segSeq) && segSeq.Less(c.rcvNxt.Add(wnd))
	case wnd == 0:
		// Zero window: only window probes at rcv_nxt are interesting; the
		// probe data is dropped but must be acknowledged so the sender
		// keeps probing and discovers the reopening.
		acceptable = segSeq == c.rcvNxt
		if acceptable {
			if segLen > 0 {
				c.ackNow = true
			}
			data = nil
			segLen = 0
			fin = false
		}
	default:
		end := segSeq.Add(segLen)
		acceptable = (c.rcvNxt.Leq(segSeq) && segSeq.Less(c.rcvNxt.Add(wnd))) ||
			(c.rcvNxt.Less(end) && end.Leq(c.rcvNxt.Add(wnd))) ||
			(segSeq.Less(c.rcvNxt) && c.rcvNxt.Add(wnd).Less(end))
	}
	if !acceptable {
		c.stats.BadChecksumOrTrim++
		if h.Flags&FlagRST == 0 {
			c.ackNow = true
			c.Output()
		}
		return
	}

	// RST processing.
	if h.Flags&FlagRST != 0 {
		switch c.state {
		case SynRcvd:
			c.closedErr = ErrRefused
		case Established, FinWait1, FinWait2, CloseWait:
			c.closedErr = ErrReset
		default:
			c.closedErr = nil
		}
		c.setState(Closed, TrigReset)
		return
	}

	// SYN in window is an error: reset the connection.
	if h.Flags&FlagSYN != 0 && c.rcvNxt.Leq(segSeq) {
		c.sendRST()
		c.closedErr = ErrReset
		c.setState(Closed, TrigReset)
		return
	}

	// ACK processing.
	if h.Flags&FlagACK == 0 {
		return // every segment past SYN must carry ACK
	}
	if !c.processAck(h) {
		return // connection closed or segment dropped
	}

	// Payload processing.
	if segLen > 0 {
		switch c.state {
		case Established, FinWait1, FinWait2:
			before := c.rcvNxt
			c.rcvNxt = c.rcv.insert(c.rcvNxt, segSeq, data)
			if c.rcvNxt == before && segSeq != before {
				// Out of order: duplicate-ack immediately so the sender's
				// fast retransmit can engage.
				c.stats.OutOfOrder++
				c.ackNow = true
			} else {
				c.stats.BytesRcvd += int64(c.rcvNxt.Diff(before))
				// Delayed ACK: first in-order segment sets the flag; a
				// second one forces an immediate ACK ("ack every other").
				if c.cfg.NoDelayedAck {
					c.ackNow = true
				} else if c.delAck {
					c.ackNow = true
				} else {
					c.delAck = true
					c.stats.DelayedAcks++
				}
				if c.cb.OnReadable != nil && c.rcv.readable() > 0 {
					c.cb.OnReadable()
				}
			}
		default:
			// Data after our FIN has been processed: just ACK.
			c.ackNow = true
		}
	}

	// FIN processing: the FIN occupies the sequence slot after the data.
	if fin {
		c.rcvFinSeen = true
		c.rcvFinSeq = segSeq.Add(segLen)
	}
	if c.rcvFinSeen && !c.rcvEOF && c.rcvNxt == c.rcvFinSeq {
		c.rcvEOF = true
		c.rcvNxt = c.rcvNxt.Add(1)
		c.ackNow = true
		switch c.state {
		case SynRcvd, Established:
			c.setState(CloseWait, TrigSegment)
		case FinWait1:
			// Our FIN not yet acked (otherwise processAck moved us to
			// FinWait2): simultaneous close.
			c.setState(Closing, TrigSegment)
		case FinWait2:
			c.enterTimeWait(TrigSegment)
		}
		if c.cb.OnReadable != nil {
			c.cb.OnReadable() // EOF is readable
		}
	}

	c.Output()
}

// inputListen handles segments in LISTEN (RFC 793 p.65).
func (c *Conn) inputListen(h Header, data []byte) {
	if h.Flags&FlagRST != 0 {
		return
	}
	if h.Flags&FlagACK != 0 {
		c.sendRSTFor(h, len(data))
		return
	}
	if h.Flags&FlagSYN == 0 {
		return
	}
	c.irs = h.Seq
	c.rcvNxt = h.Seq.Add(1)
	c.rcvAdv = c.rcvNxt
	if h.MSS != 0 && int(h.MSS) < c.sndMSS {
		c.sndMSS = int(h.MSS)
	}
	// The shell provided iss at OpenListen time? No: LISTEN pcbs receive
	// their ISS via SetISS before or at clone time; default to a
	// deterministic function of the peer's ISN if unset.
	if c.iss == 0 {
		c.iss = h.Seq + 64000
	}
	c.sndUna, c.sndNxt, c.sndMax = c.iss, c.iss, c.iss
	c.snd.start = c.iss.Add(1)
	c.cwnd = c.sndMSS
	c.ssthresh = MaxWindow
	// Take the window from the SYN directly; it predates any ACK, so the
	// wl1/wl2 freshness rule does not apply yet.
	c.sndWnd = int(h.Window)
	c.maxSndWnd = c.sndWnd
	c.sndWl1, c.sndWl2 = h.Seq, c.iss
	c.setState(SynRcvd, TrigSegment)
	c.startRexmt()
	c.Output() // emits SYN|ACK
}

// SetISS supplies the initial send sequence a LISTEN pcb will use when a
// SYN arrives (shells keep this deterministic).
func (c *Conn) SetISS(iss Seq) { c.iss = iss }

// inputSynSent handles segments in SYN_SENT (RFC 793 p.66).
func (c *Conn) inputSynSent(h Header, data []byte) {
	ackOK := false
	if h.Flags&FlagACK != 0 {
		if h.Ack.Leq(c.iss) || c.sndMax.Less(h.Ack) {
			if h.Flags&FlagRST == 0 {
				c.sendRSTFor(h, len(data))
			}
			return
		}
		ackOK = true
	}
	if h.Flags&FlagRST != 0 {
		if ackOK {
			c.closedErr = ErrRefused
			c.setState(Closed, TrigReset)
		}
		return
	}
	if h.Flags&FlagSYN == 0 {
		return
	}
	c.irs = h.Seq
	c.rcvNxt = h.Seq.Add(1)
	c.rcvAdv = c.rcvNxt
	if h.MSS != 0 && int(h.MSS) < c.sndMSS {
		c.sndMSS = int(h.MSS)
	}
	c.cwnd = c.sndMSS
	if ackOK {
		c.sndUna = h.Ack
		if c.sndNxt.Less(c.sndUna) {
			c.sndNxt = c.sndUna
		}
		c.clearTimer(&c.tRexmt)
		c.rxtShift = 0
		// Window from the SYN|ACK, installed directly (see inputListen).
		c.sndWnd = int(h.Window)
		c.maxSndWnd = c.sndWnd
		c.sndWl1, c.sndWl2 = h.Seq, h.Ack
		c.ackNow = true
		c.setState(Established, TrigSegment)
		if c.sndClosed { // Close raced the handshake
			c.setState(FinWait1, TrigUser)
		}
	} else {
		// Simultaneous open.
		c.sndWnd = int(h.Window)
		c.maxSndWnd = c.sndWnd
		c.sndWl1, c.sndWl2 = h.Seq, c.iss
		c.ackNow = true
		c.setState(SynRcvd, TrigSegment)
	}
	if len(data) > 0 {
		c.rcvNxt = c.rcv.insert(c.rcvNxt, h.Seq.Add(1), data)
	}
	c.Output()
}

// processAck implements the ESTABLISHED-and-later ACK rules; it reports
// whether processing of the segment should continue.
func (c *Conn) processAck(h Header) bool {
	// SYN_RCVD: does this ACK complete the handshake?
	if c.state == SynRcvd {
		if c.sndUna.Leq(h.Ack) && h.Ack.Leq(c.sndMax) {
			c.updateSndWnd(h)
			c.setState(Established, TrigSegment)
			if c.sndClosed && !c.finQueued {
				c.setState(FinWait1, TrigUser)
			}
		} else {
			c.sendRSTFor(h, 0)
			return false
		}
	}

	switch {
	case h.Ack.Leq(c.sndUna):
		// Duplicate ACK. Count it only if it is a "true" duplicate: no
		// data, no window change, and we have outstanding data.
		if h.Ack == c.sndUna && c.snd.len() > 0 && int(h.Window) == c.sndWnd {
			c.stats.DupAcksRcvd++
			c.dupAcks++
			if c.dupAcks == 3 {
				c.fastRetransmit()
				return true
			}
		}
		// Old ACK: ignore (but continue with payload processing).
		c.updateSndWnd(h)
		return true
	case c.sndMax.Less(h.Ack):
		// ACK for data we never sent.
		c.ackNow = true
		c.Output()
		return false
	}

	// New ACK.
	acked := h.Ack.Diff(c.sndUna)
	c.dupAcks = 0

	// RTT sample (Karn: only if the timed sequence is covered and we did
	// not retransmit it — t_rtt is zeroed on retransmission).
	if c.tRtt > 0 && c.tRtseq.Less(h.Ack) {
		c.updateRTT(c.tRtt)
		c.tRtt = 0
	}

	// Congestion window growth (slow start / congestion avoidance).
	if c.cwnd < c.ssthresh {
		c.cwnd += c.sndMSS
	} else {
		c.cwnd += c.sndMSS * c.sndMSS / c.cwnd
	}
	if c.cwnd > MaxWindow {
		c.cwnd = MaxWindow
	}

	// Did the ACK cover our FIN?
	finAcked := c.finQueued && c.finSeq.Less(h.Ack)

	ackedData := acked
	if finAcked {
		ackedData--
	}
	if h.Ack.Diff(c.iss) > 0 && c.sndUna.Leq(c.iss) {
		ackedData-- // SYN consumed one sequence slot
	}
	if ackedData > 0 {
		c.snd.ackTo(c.sndUna.Add(ackedData)) // buffer origin excludes SYN/FIN
	}
	c.sndUna = h.Ack
	if c.sndNxt.Less(c.sndUna) {
		c.sndNxt = c.sndUna
	}

	// Retransmission timer: all data acked -> stop; else restart.
	if c.sndUna == c.sndMax {
		c.clearTimer(&c.tRexmt)
		c.rxtShift = 0
	} else {
		c.rxtShift = 0
		c.setTimer(&c.tRexmt, c.rxtCur)
	}

	c.updateSndWnd(h)

	if ackedData > 0 && c.cb.OnWritable != nil {
		c.cb.OnWritable()
	}

	// State transitions driven by our FIN being acknowledged.
	if finAcked {
		switch c.state {
		case FinWait1:
			c.setState(FinWait2, TrigSegment)
		case Closing:
			c.enterTimeWait(TrigSegment)
		case LastAck:
			c.closedErr = nil
			c.setState(Closed, TrigSegment)
			return false
		}
	}
	if c.state == TimeWait {
		// Retransmitted peer FIN: re-ack and restart 2MSL.
		c.ackNow = true
		c.setTimer(&c.t2MSL, c.cfg.TimeWaitTicks)
		c.emitTimeWaitArm()
	}
	return true
}

// updateSndWnd applies the send-window update rule (RFC 793 p.72).
func (c *Conn) updateSndWnd(h Header) {
	if h.Flags&FlagACK == 0 {
		return
	}
	if c.sndWl1.Less(h.Seq) || (c.sndWl1 == h.Seq && c.sndWl2.Leq(h.Ack)) {
		c.sndWnd = int(h.Window)
		if c.sndWnd > c.maxSndWnd {
			c.maxSndWnd = c.sndWnd
		}
		c.sndWl1 = h.Seq
		c.sndWl2 = h.Ack
		if c.sndWnd > 0 && c.tPersist != 0 {
			c.clearTimer(&c.tPersist)
			c.persistShift = 0
		}
	}
}

// fastRetransmit performs the 3-dup-ack retransmission of 4.3BSD-Tahoe:
// resend the missing segment, then slow start over.
func (c *Conn) fastRetransmit() {
	c.stats.FastRexmits++
	win := c.sndWnd
	if c.cwnd < win {
		win = c.cwnd
	}
	ss := win / 2
	if ss < 2*c.sndMSS {
		ss = 2 * c.sndMSS
	}
	c.ssthresh = ss
	// Retransmit the missing segment.
	savedNxt := c.sndNxt
	c.sndNxt = c.sndUna
	c.tRtt = 0 // Karn
	c.cwnd = c.sndMSS
	if c.bus.Enabled() {
		c.bus.Emit(trace.Event{Kind: trace.TCPRexmit, Conn: c.busLabel,
			A: int64(c.rxtShift), B: int64(c.rxtCur), Text: "fast"})
	}
	c.outputForced()
	c.sndNxt = seqMax(savedNxt, c.sndNxt)
	c.setTimer(&c.tRexmt, c.rxtCur)
}

// enterTimeWait transitions to TIME_WAIT and starts the 2*MSL timer.
func (c *Conn) enterTimeWait(why Trigger) {
	if TestHookSkipTimeWait {
		// Injected bug for the conformance explorer's self-test: release
		// the connection without the 2*MSL quiet period.
		c.closedErr = nil
		c.setState(Closed, why)
		return
	}
	c.setState(TimeWait, why)
	c.cancelDataTimers()
	c.setTimer(&c.t2MSL, c.cfg.TimeWaitTicks)
	c.emitTimeWaitArm()
}

// emitTimeWaitArm traces an arming (or re-arming) of the 2*MSL timer, so
// the conformance checker can verify TIME_WAIT lasts exactly TimeWaitTicks
// from the most recent arming.
func (c *Conn) emitTimeWaitArm() {
	if c.bus.Enabled() {
		c.bus.Emit(trace.Event{Kind: trace.TCPTimeWait, Conn: c.busLabel,
			A: int64(c.cfg.TimeWaitTicks)})
	}
}

func (c *Conn) cancelDataTimers() {
	c.clearTimer(&c.tRexmt)
	c.clearTimer(&c.tPersist)
	c.clearTimer(&c.tKeep)
}
