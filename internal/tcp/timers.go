package tcp

import "ulp/internal/trace"

// Timer machinery in the 4.3BSD style: all protocol timers are tick
// counters decremented by two periodic timeouts the shell drives — SlowTick
// every 500 ms (retransmit, persist, keepalive, 2*MSL) and FastTick every
// 200 ms (the tail loss probe, delayed acknowledgments). "Practically every
// message arrival and departure involves timer operations": Stats.TimerOps
// counts them, while the shells' SegCost charges a fixed two TimerOp per
// segment.

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

// FastTick is the 200 ms timeout: it counts the tail loss probe down, then
// flushes a pending delayed ACK. The probe goes first so that a probe
// armed by the flush's own send counts from the next tick, as it does when
// a timer wheel drives the two separately (AdvanceFastTicks, FlushDelAck).
func (c *Conn) FastTick() {
	c.AdvanceFastTicks(1)
	c.FlushDelAck()
}

// FlushDelAck sends a pending delayed ACK: FastTick's second half, which a
// timer-wheel shell runs on its own delayed-ACK timer.
func (c *Conn) FlushDelAck() {
	if c.delAck {
		c.delAck = false
		c.ackNow = true
		c.Output()
	}
}

// NextFastTicks reports how many FastTicks from now the tail loss probe
// fires, or 0 when it is not armed. A timer-wheel shell arms a fast-wheel
// timer for exactly this many ticks.
func (c *Conn) NextFastTicks() int { return c.tProbe }

// AdvanceFastTicks applies n FastTicks' worth of the probe countdown, as
// AdvanceSlowTicks does for the slow timers; the delayed ACK is not
// flushed. The probe fires at most once: it is not re-armed until a new
// ACK.
func (c *Conn) AdvanceFastTicks(n int) {
	if c.tProbe == 0 {
		return
	}
	if n < c.tProbe {
		c.tProbe -= n
		return
	}
	c.tProbe = 0
	c.probeTimeout()
}

// armProbe arms the tail loss probe for the flight now outstanding, or
// disarms it where no probe is due: nothing is outstanding, the
// retransmission timer does not cover it (the persist machinery owns a
// zero window), recovery is repairing a loss, a time-out has backed off,
// or this tail has had its probe. Called on every new ACK and every send
// of new data, so the probe falls due a PTO after the last of them.
func (c *Conn) armProbe() {
	flight := c.sndMax.Diff(c.sndUna)
	if flight == 0 || c.tRexmt == 0 || c.inRecovery || c.rxtShift != 0 || c.probed || !canSendData(c.state) {
		c.tProbe = 0
		return
	}
	c.tProbe = probeTicks
	if flight <= c.sndMSS {
		// A lone segment's ACK may wait out the peer's delayed-ACK timer.
		c.tProbe++
	}
}

// probeTimeout sends the tail loss probe (RFC 8985 §7): one more segment,
// so that a receiver missing a segment of a flight too short to draw three
// duplicate ACKs sends one more at once (RFC 5681 §4.2), and fast
// retransmission can repair the hole without waiting for the
// retransmission timer. Without SACK the probe can do nothing else:
// the duplicate it draws says only that something is missing. It is new
// data if the window (and Nagle) allow, else the highest segment sent
// again, which is in flight already: neither cwnd, however far limited
// transmit took the flight past it, nor a window the peer has since shrunk
// holds it back. cwnd is raised one segment for this one send; the
// retransmission timer stays armed and nothing backs off.
func (c *Conn) probeTimeout() {
	c.probed = true
	c.stats.TailProbes++
	if c.bus.Enabled() {
		c.bus.Emit(trace.Event{Kind: trace.TCPRexmit, Conn: c.busLabel,
			A: int64(c.rxtShift), B: int64(c.rxtCur), C: int64(c.sndUna), Text: "probe"})
	}
	cwnd, sndMax := c.cwnd, c.sndMax
	c.cwnd += c.sndMSS
	if c.sndNxt == c.sndMax {
		c.outputOne(false)
	}
	if c.sndMax == sndMax {
		// Karn: the resent segment must not be timed.
		c.tRtt = 0
		saved, wnd, flight := c.sndNxt, c.sndWnd, c.sndMax.Diff(c.sndUna)
		c.cwnd, c.sndWnd = max(c.cwnd, flight), max(wnd, flight)
		c.sndNxt = seqMax(c.sndUna, c.sndMax.Add(-c.sndMSS))
		c.outputOne(true)
		c.sndNxt, c.sndWnd = seqMax(saved, c.sndNxt), wnd
	}
	c.cwnd = cwnd
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

// RexmtNow runs the retransmission time-out at once, as if the timer had
// run out: what is outstanding is sent again under the back-off and the
// R2 give-up of a time-out. It does nothing while the timer is not armed.
func (c *Conn) RexmtNow() {
	if c.tRexmt != 0 {
		c.tRexmt = 0
		c.rexmtTimeout()
	}
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
	if c.rxtShift == min(rexmtR1, c.cfg.RexmtR2) {
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
	if c.stats.RTTSamples == 0 && c.srtt == 0 {
		// Pre-measurement default (3 s). A sample of one tick leaves srtt
		// at 0 too, so the count decides; a restored connection brings its
		// srtt but not the count.
		base = 6
	}
	c.rxtCur = base * rexmtBackoff[c.rxtShift]
	if c.rxtCur > maxRexmtTicks {
		c.rxtCur = maxRexmtTicks
	}

	// Traced before the count is cleared: it says why fast retransmission
	// did not repair the loss.
	if c.bus.Enabled() {
		c.bus.Emit(trace.Event{Kind: trace.TCPRexmit, Conn: c.busLabel,
			A: int64(c.rxtShift), B: int64(c.rxtCur), C: int64(c.dupAcks), Text: "timeout"})
	}

	// Collapse cwnd to one segment and leave fast recovery; duplicates for
	// what was sent before now must not start it again. The probe waits for
	// a new ACK.
	c.tProbe = 0
	c.halveWindow()
	c.cwnd = c.sndMSS
	c.dupAcks, c.dupHeld = 0, false
	c.inRecovery = false
	c.recover = c.sndMax

	// Karn: a retransmitted sequence must not be timed.
	c.tRtt = 0

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
