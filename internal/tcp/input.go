package tcp

import "ulp/internal/trace"

// Input processes an arriving segment (header already decoded and checksum
// verified by the shell via Decode). data is the segment payload.
func (c *Conn) Input(h Header, data []byte) {
	if c.state == TimeWait {
		c.inputTimeWait(h, data)
		return
	}
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
	ok := acceptable(c.rcvNxt, wnd, segSeq, segLen)
	if ok && wnd == 0 && segLen > 0 {
		// Zero window: only window probes at rcv_nxt are interesting; the
		// probe data is dropped but must be acknowledged so the sender
		// keeps probing and discovers the reopening. It still carried
		// data, so processAck does not take it for a duplicate ACK.
		c.ackNow = true
		segLen = 0
		fin = false
	}
	if !ok {
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
	if !c.processAck(h, len(data)) {
		return // connection closed or segment dropped
	}

	// Payload processing.
	if segLen > 0 {
		switch c.state {
		case Established, FinWait1, FinWait2:
			before, queued := c.rcvNxt, c.rcv.queued()
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
				// The segment that empties the reassembly queue is ACKed
				// at once (RFC 5681 §4.2): its sender is in recovery and
				// may have nothing else it is allowed to send. One that
				// leaves a hole behind it waits like any other.
				if c.cfg.NoDelayedAck || (queued && !c.rcv.queued()) {
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

// acceptable is RFC 793's acceptability test of a segment at seq carrying
// segLen bytes against the receive window of wnd bytes at rcvNxt. With the
// window closed only a segment at rcv_nxt is acceptable.
func acceptable(rcvNxt Seq, wnd int, seq Seq, segLen int) bool {
	switch {
	case wnd == 0:
		return seq == rcvNxt
	case segLen == 0:
		return rcvNxt.Leq(seq) && seq.Less(rcvNxt.Add(wnd))
	}
	end := seq.Add(segLen)
	return (rcvNxt.Leq(seq) && seq.Less(rcvNxt.Add(wnd))) ||
		(rcvNxt.Less(end) && end.Leq(rcvNxt.Add(wnd))) ||
		(seq.Less(rcvNxt) && rcvNxt.Add(wnd).Less(end))
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
	c.sndUna, c.sndNxt, c.sndMax, c.recover = c.iss, c.iss, c.iss, c.iss
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

// processAck implements the ESTABLISHED-and-later ACK rules for a segment
// that arrived with payload bytes of data; it reports whether processing of
// the segment should continue.
func (c *Conn) processAck(h Header, payload int) bool {
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
		// Duplicate ACK (RFC 5681 §2): at snd_una, carrying no data, with
		// data outstanding, and the window unchanged. One whose window grew
		// because the peer's application read is held instead, outside
		// recovery: it counts once a true duplicate follows it (dupAck), so
		// window updates alone never start a recovery.
		if h.Ack == c.sndUna && payload == 0 && c.snd.len() > 0 {
			switch wnd := int(h.Window); {
			case wnd == c.sndWnd:
				c.dupAck()
			case wnd > c.sndWnd && !c.inRecovery:
				c.dupHeld = true
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
	c.dupAcks, c.dupHeld = 0, false

	// RTT sample (Karn: only if the timed sequence is covered and we did
	// not retransmit it — t_rtt is zeroed on retransmission).
	if c.tRtt > 0 && c.tRtseq.Less(h.Ack) {
		c.updateRTT(c.tRtt)
		c.tRtt = 0
	}

	// Outside recovery, pull recover up to the snd_una this ACK moves on
	// from, so that it stays within 2^31 of snd_una; it then still lies
	// below every later snd_una and cannot stop a recovery. Congestion
	// window growth: slow start adds a segment per ACK; congestion
	// avoidance adds one per window of acknowledged bytes (RFC 3465), so an
	// ACK for two segments counts twice.
	if !c.inRecovery {
		c.recover = seqMax(c.recover, c.sndUna)
		if c.cwnd < c.ssthresh {
			c.cwnd += c.sndMSS
		} else {
			c.cwnd += c.sndMSS * acked / c.cwnd
		}
		if c.cwnd > MaxWindow {
			c.cwnd = MaxWindow
		}
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

	if c.inRecovery {
		c.recoveryAck(acked)
	}
	c.probed = false
	c.armProbe()

	if ackedData > 0 && c.cb.OnWritable != nil {
		c.cb.OnWritable()
	}

	// State transitions driven by our FIN being acknowledged.
	// The ACK that takes CLOSING to TIME_WAIT only changes the state: it is
	// answered by nothing and arms 2MSL once, in enterTimeWait. A segment
	// arriving in TIME_WAIT never gets here (inputTimeWait).
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

// dupAck counts a true duplicate ACK, and the held window-moving one before
// it if any, up to the third. The first two send new data by limited
// transmit (RFC 3042), the third starts NewReno fast recovery (RFC 6582), and
// each one during recovery inflates cwnd by the segment that has left the
// network, for Input's closing Output to fill.
func (c *Conn) dupAck() {
	c.stats.DupAcksRcvd++
	c.dupAcks++
	if c.dupHeld && c.dupAcks < 3 {
		c.dupAcks++
	}
	c.dupHeld = false
	switch {
	case c.inRecovery:
		c.cwnd += c.sndMSS
	case c.dupAcks == 3 && c.recover.Leq(c.sndUna):
		// The ACK covers recover, as a full ACK does (recoveryAck). Below
		// it, duplicates may echo the go-back-N resends of a time-out.
		c.enterRecovery()
	case c.dupAcks < 3 && c.sndNxt == c.sndMax:
		// One segment beyond cwnd per duplicate so far; Nagle,
		// silly-window avoidance and the peer's window still decide.
		cwnd := c.cwnd
		c.cwnd += c.dupAcks * c.sndMSS
		c.outputOne(false)
		c.cwnd = cwnd
	}
}

// enterRecovery halves the operating window into ssthresh, resends the
// segment at snd_una and inflates cwnd by the three segments the duplicates
// say have left the network.
func (c *Conn) enterRecovery() {
	c.halveWindow()
	c.recover = c.sndMax
	c.inRecovery = true
	c.tProbe = 0
	c.retransmitUna()
	c.cwnd = c.ssthresh + 3*c.sndMSS
	c.setTimer(&c.tRexmt, c.rxtCur)
}

// recoveryAck handles a new ACK during fast recovery, after snd_una moved.
func (c *Conn) recoveryAck(acked int) {
	if c.sndUna.Less(c.recover) {
		// Partial ACK: the next hole was lost too. Resend it at once, then
		// deflate cwnd by what was acknowledged, adding back one segment
		// if that was a full one.
		c.retransmitUna()
		c.cwnd -= acked
		if acked >= c.sndMSS {
			c.cwnd += c.sndMSS
		}
		c.cwnd = max(c.cwnd, c.sndMSS)
		return
	}
	// Full ACK: leave recovery at ssthresh (RFC 6582's second choice). The
	// first, flight + 1 segment, is one segment when the full ACK empties
	// the pipe, and a lone segment waits out the peer's delayed-ACK timer.
	c.inRecovery = false
	c.cwnd = c.ssthresh
}

// retransmitUna resends the one segment at snd_una. outputForced would go
// on to resend the whole window behind it.
func (c *Conn) retransmitUna() {
	c.stats.FastRexmits++
	c.tRtt = 0 // Karn
	if c.bus.Enabled() {
		c.bus.Emit(trace.Event{Kind: trace.TCPRexmit, Conn: c.busLabel,
			A: int64(c.rxtShift), B: int64(c.rxtCur), C: int64(c.dupAcks), Text: "fast"})
	}
	saved := c.sndNxt
	c.sndNxt = c.sndUna
	c.outputOne(true)
	c.sndNxt = seqMax(saved, c.sndNxt)
}

// halveWindow is the congestion response to a loss (Van Jacobson): half
// the operating window, at least two segments, into ssthresh.
func (c *Conn) halveWindow() {
	c.ssthresh = max(min(c.sndWnd, c.cwnd)/2, 2*c.sndMSS)
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
	c.traceTimeWaitArm()
}

// traceTimeWaitArm traces an arming of the 2*MSL timer, so the conformance
// checker can verify TIME_WAIT lasts exactly TimeWaitTicks from it.
func (c *Conn) traceTimeWaitArm() {
	if c.bus.Enabled() {
		c.bus.Emit(trace.Event{Kind: trace.TCPTimeWait, Conn: c.busLabel,
			A: int64(c.cfg.TimeWaitTicks)})
	}
}

func (c *Conn) cancelDataTimers() {
	c.clearTimer(&c.tRexmt)
	c.clearTimer(&c.tPersist)
	c.clearTimer(&c.tKeep)
	c.tProbe = 0
}
