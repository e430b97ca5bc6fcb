package tcp

import "ulp/internal/trace"

// Timer machinery in the 4.3BSD style: all protocol timers are tick
// counters decremented by two periodic timeouts the shell drives — SlowTick
// every 500 ms (retransmit, persist, keepalive, 2*MSL) and FastTick every
// 200 ms (delayed acknowledgments). "Practically every message arrival and
// departure involves timer operations": shells charge the cost model using
// the Stats.TimerOps counter.

// rexmtBackoff is the BSD retransmission backoff table.
var rexmtBackoff = [maxRexmtShift + 1]int{1, 2, 4, 8, 16, 32, 64, 64, 64, 64, 64, 64, 64}

// setTimer arms a tick-counter timer.
func (c *Conn) setTimer(t *int, ticks int) {
	if ticks <= 0 {
		ticks = 1
	}
	*t = ticks
	c.stats.TimerOps++
}

// clearTimer disarms a timer.
func (c *Conn) clearTimer(t *int) {
	if *t != 0 {
		*t = 0
		c.stats.TimerOps++
	}
}

// startRexmt arms the retransmission timer with the current RTO.
func (c *Conn) startRexmt() { c.setTimer(&c.tRexmt, c.rxtCur) }

// updateRTT folds a measured RTT (in ticks, counted from 1) into the
// Jacobson estimator: srtt is kept scaled by 8, rttvar by 4, and
// RTO = srtt + 4*rttvar, clamped to [1 s, 64 s].
func (c *Conn) updateRTT(rtt int) {
	c.stats.RTTSamples++
	m := rtt - 1
	if c.srtt != 0 {
		delta := m - (c.srtt >> 3)
		c.srtt += delta
		if c.srtt <= 0 {
			c.srtt = 1
		}
		if delta < 0 {
			delta = -delta
		}
		delta -= c.rttvar >> 2
		c.rttvar += delta
		if c.rttvar <= 0 {
			c.rttvar = 1
		}
	} else {
		c.srtt = m << 3
		c.rttvar = m << 1
	}
	c.rxtCur = (c.srtt >> 3) + c.rttvar
	if c.rxtCur < minRexmtTicks {
		c.rxtCur = minRexmtTicks
	}
	if c.rxtCur > maxRexmtTicks {
		c.rxtCur = maxRexmtTicks
	}
	c.rxtShift = 0
	if c.bus.Enabled() {
		c.bus.Emit(trace.Event{Kind: trace.TCPRTO, Conn: c.busLabel, A: int64(rtt), B: int64(c.rxtCur)})
	}
}

// persistBackoff returns the current persist interval in ticks.
func (c *Conn) persistBackoff() int {
	v := persistMin << c.persistShift
	if v > persistMax {
		v = persistMax
	}
	return v
}

// FastTick is the 200 ms timeout: it flushes pending delayed ACKs.
func (c *Conn) FastTick() {
	if c.delAck {
		c.delAck = false
		c.ackNow = true
		c.Output()
	}
}

// SlowTick is the 500 ms timeout driving all other timers.
func (c *Conn) SlowTick() {
	if c.state == Closed || c.state == Listen {
		return
	}
	if c.tRtt > 0 {
		c.tRtt++
	}
	c.idleT++

	if dec(&c.tRexmt) {
		c.rexmtTimeout()
	}
	if dec(&c.tPersist) {
		c.persistTimeout()
	}
	if dec(&c.tKeep) {
		c.keepTimeout()
	}
	if dec(&c.t2MSL) {
		c.closedErr = nil
		c.setState(Closed, TrigTimer)
	}
}

// NextSlowTicks reports how many SlowTicks from now the earliest armed
// slow timer fires, or 0 when no slow timer is armed (or the connection is
// Closed/Listen, where SlowTick is a no-op). A timer-wheel shell arms its
// wheel entry for exactly this many ticks and skips the connection until
// then.
func (c *Conn) NextSlowTicks() int {
	if c.state == Closed || c.state == Listen {
		return 0
	}
	next := 0
	for _, t := range [4]int{c.tRexmt, c.tPersist, c.tKeep, c.t2MSL} {
		if t > 0 && (next == 0 || t < next) {
			next = t
		}
	}
	return next
}

// CatchUpSlow advances the slow-timer state by k ticks during which no
// timer fires: every armed counter is bulk-decremented and the RTT/idle
// tick counters bulk-incremented, exactly as k sequential SlowTicks would
// have done. The caller must guarantee k < NextSlowTicks() (or that no
// timer is armed); AdvanceSlowTicks enforces this.
func (c *Conn) CatchUpSlow(k int) {
	if k <= 0 || c.state == Closed || c.state == Listen {
		return
	}
	if c.tRtt > 0 {
		c.tRtt += k
	}
	c.idleT += k
	for _, t := range [4]*int{&c.tRexmt, &c.tPersist, &c.tKeep, &c.t2MSL} {
		if *t > 0 {
			*t -= k
			if *t <= 0 {
				panic("tcp: CatchUpSlow skipped over an armed timer")
			}
		}
	}
}

// AdvanceSlowTicks applies n SlowTicks' worth of virtual time in O(fires)
// rather than O(n): quiet stretches are bulk-advanced with CatchUpSlow and
// each deadline that falls inside the window fires through the ordinary
// SlowTick path (so expiry handlers see exactly the state they would under
// n sequential calls, including timers they re-arm mid-window). This is
// what lets a wheel-driven shell leave idle connections untouched for
// thousands of ticks and still replay bit-identical protocol behavior.
func (c *Conn) AdvanceSlowTicks(n int) {
	for n > 0 {
		next := c.NextSlowTicks()
		if next == 0 || next > n {
			c.CatchUpSlow(n)
			return
		}
		c.CatchUpSlow(next - 1)
		c.SlowTick()
		n -= next
	}
}

// DelAckPending reports whether a delayed ACK is waiting for the next
// FastTick. A timer-wheel shell arms the fast wheel only while this holds.
func (c *Conn) DelAckPending() bool { return c.delAck }

// dec decrements a tick counter, reporting whether it just fired.
func dec(t *int) bool {
	if *t == 0 {
		return false
	}
	*t--
	return *t == 0
}

// rexmtTimeout handles expiry of the retransmission timer: exponential
// backoff, congestion collapse to one segment (slow start), go-back-N.
func (c *Conn) rexmtTimeout() {
	c.rxtShift++
	if c.rxtShift > c.cfg.RexmtR2 {
		c.stats.RexmtGiveUps++
		c.closedErr = ErrTimeout
		if c.state == SynSent || c.state == SynRcvd {
			c.closedErr = ErrRefused
		}
		c.setState(Closed, TrigTimer)
		return
	}
	if c.rxtShift == c.cfg.RexmtR1 {
		// RFC 1122 R1: delivery looks degraded; a layered stack would hint
		// IP to re-route here. We record it so applications (and the
		// degradation experiment) can observe the threshold crossing.
		c.stats.R1Advisories++
	}
	c.stats.Rexmits++
	base := (c.srtt >> 3) + c.rttvar
	if base < minRexmtTicks {
		base = minRexmtTicks
	}
	if c.srtt == 0 {
		base = 6 // pre-measurement default (3 s)
	}
	c.rxtCur = base * rexmtBackoff[c.rxtShift]
	if c.rxtCur > maxRexmtTicks {
		c.rxtCur = maxRexmtTicks
	}

	// Congestion response (Van Jacobson): half the operating window into
	// ssthresh, collapse cwnd to one segment.
	win := c.sndWnd
	if c.cwnd < win {
		win = c.cwnd
	}
	ss := win / 2
	if ss < 2*c.sndMSS {
		ss = 2 * c.sndMSS
	}
	c.ssthresh = ss
	c.cwnd = c.sndMSS
	c.dupAcks = 0

	// Karn: a retransmitted sequence must not be timed.
	c.tRtt = 0

	if c.bus.Enabled() {
		c.bus.Emit(trace.Event{Kind: trace.TCPRexmit, Conn: c.busLabel,
			A: int64(c.rxtShift), B: int64(c.rxtCur), Text: "timeout"})
	}
	c.sndNxt = c.sndUna
	c.setTimer(&c.tRexmt, c.rxtCur)
	c.outputForced()
}

// persistTimeout sends a window probe against a zero window: one byte at
// snd_una, re-sent each time (the previous probe byte was never
// acknowledged, or the window would be open).
func (c *Conn) persistTimeout() {
	c.stats.WindowProbes++
	if c.persistShift < maxPersistShift {
		c.persistShift++
	}
	c.setTimer(&c.tPersist, c.persistBackoff())
	saved := c.sndNxt
	c.sndNxt = c.sndUna
	c.outputForced()
	c.sndNxt = seqMax(saved, c.sndNxt)
	// Karn: the probe re-sends the byte at snd_una, so any running RTT
	// measurement now covers a retransmitted sequence — if the peer
	// accepts the re-sent byte (its window reopened while the probe was
	// in flight), the covering ACK is unattributable and must not feed
	// the estimator with a sample spanning the persist episode.
	c.tRtt = 0
	if c.bus.Enabled() {
		c.bus.Emit(trace.Event{Kind: trace.TCPPersist, Conn: c.busLabel,
			A: int64(c.persistShift), B: int64(c.tPersist)})
	}
}

// keepTimeout sends a keepalive probe; too many unanswered probes drop the
// connection. The probe carries seq = snd_una-1, which the peer must answer
// with an ACK because it falls below the window.
func (c *Conn) keepTimeout() {
	if c.state != Established || c.cfg.KeepAliveTicks == 0 {
		return
	}
	c.keepProbes++
	if c.keepProbes > keepMaxProbes {
		c.closedErr = ErrKeepalive
		c.setState(Closed, TrigTimer)
		return
	}
	c.stats.KeepProbes++
	h := Header{
		SrcPort: c.local.Port, DstPort: c.peer.Port,
		Seq: c.sndUna.Add(-1), Ack: c.rcvNxt,
		Flags:  FlagACK,
		Window: uint16(c.advertisableWindow()),
	}
	b := newSegBuf(c.cfg.Headroom, nil)
	h.Encode(b, c.local.IP, c.peer.IP)
	c.stats.SegsSent++
	if c.cb.Send != nil {
		c.cb.Send(b, h, 0)
	}
	c.setTimer(&c.tKeep, c.cfg.KeepAliveTicks)
}
