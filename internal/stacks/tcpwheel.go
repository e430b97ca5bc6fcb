package stacks

import (
	"time"

	"ulp/internal/kern"
	"ulp/internal/tcp"
	"ulp/internal/timerwheel"
)

// TCPWheel is the TCP timer backend of every organization: timing wheels
// (Varghese & Lauck, the mechanism the paper names for making "practically
// every message arrival and departure involves timer operations" cheap)
// under the BSD 200/500 ms tick timers. A connection is touched only when
// one of its timers actually fires, so an idle connection costs nothing
// per tick and timer CPU is charged per fire:
//
//   - Each connection registers a WheelEnt holding one slow-wheel and two
//     fast-wheel timers plus lastSeen and lastFast, the slow and fast ticks
//     the connection's counters were last advanced to.
//   - Sync, called with the connection's engine locked, first catches the
//     tick counters up to the wheel clocks (AdvanceSlowTicks and
//     AdvanceFastTicks — O(fires), and nothing can have fired unseen
//     because the wheels are always armed for the earliest deadline), then
//     re-arms the slow timer for NextSlowTicks, the probe timer for
//     NextFastTicks (the tail loss probe's exact deadline), and the
//     delayed-ACK timer for the next tick iff a delayed ACK is pending.
//   - Drive spawns the one fast/slow driver pair: each advances its wheel
//     once per tick period and runs every due entry's Sync under that
//     connection's engine lock.
//
// Shells call Sync on engine entry (so handlers see current counters
// before processing a segment) and on engine exit (so timers the segment
// armed get onto the wheel). Both calls are idempotent.
//
// The engine's own FastTick/SlowTick remain the reference the wheel is
// tested against (tcpwheel_test.go, internal/explore).
type TCPWheel struct {
	slow, fast *timerwheel.Wheel
	// One exec slot per wheel, live only inside the matching Advance*.
	// They must be separate: the slow and fast drivers are different
	// threads, and a fire that blocks on a connection's engine lock
	// suspends its Advance mid-tick — the other driver can run a full
	// Advance (setting and clearing a shared slot) in the gap.
	execSlow func(e *WheelEnt, fn func(*WheelEnt))
	execFast func(e *WheelEnt, fn func(*WheelEnt))
	// expire runs a due TimeWaitEnt on the slow driver's thread, charged
	// like any fire; Drive sets it.
	expire func(e *TimeWaitEnt)
	fired  time.Duration // when the slow driver woke for the tick now firing
}

// WheelEnt is one connection's wheel registration. Owner carries the
// shell's connection object back to the driver's Fire hook.
type WheelEnt struct {
	Owner any

	w            *TCPWheel
	tc           *tcp.Conn
	slowT, fastT timerwheel.Timer
	lastSeen     uint64
	slowDeadline uint64
	// probeT is the tail loss probe's timer on the fast wheel, armed for
	// its deadline and moved on each new ACK or send; lastFast is the fast
	// tick the probe counter was last advanced to.
	probeT        timerwheel.Timer
	lastFast      uint64
	probeDeadline uint64
	// The timers' callbacks, bound once: Sync re-arms on most segments.
	onSlow, onFast, onProbe func()
	// dropped entries stay dropped: the shell no longer drives this engine
	// (it closed, or was handed to another shell while still live), so a
	// later Sync or a fire already past the wheel must not re-arm it.
	dropped bool
	// firing counts fires of this entry that are under way: a driver thread
	// has taken the timer off the wheel and is charging for it, or waiting
	// for the engine lock, and will touch the entry again.
	firing int
}

// TimeWaitEnt is a connection's place on the wheel once its shell has
// compacted it for TIME_WAIT (tcp.TW): the one slow timer its 2MSL needs.
type TimeWaitEnt struct {
	w      *TCPWheel
	slowT  timerwheel.Timer
	expire func(t *kern.Thread, fired time.Duration)
}

// NewTCPWheel builds the two wheels: the slow wheel spans 2^16 ticks
// (~9 virtual hours at 500 ms), far beyond the largest BSD timer; the fast
// wheel holds next-tick delayed-ACK deadlines and tail loss probes, at most
// four ticks out.
func NewTCPWheel() *TCPWheel {
	return &TCPWheel{
		slow: timerwheel.New(2, 256),
		fast: timerwheel.New(1, 16),
	}
}

// Armed reports pending timers across both wheels (diagnostics).
func (w *TCPWheel) Armed() int { return w.slow.Armed() + w.fast.Armed() }

// Add registers a connection. The returned entry starts synced to the
// current wheel clock; the caller must invoke Sync under the engine lock
// after any engine activity (Open, Input) arms timers.
func (w *TCPWheel) Add(tc *tcp.Conn, owner any) *WheelEnt {
	e := new(WheelEnt)
	w.Init(e, tc, owner)
	return e
}

// Init is Add onto an entry the caller supplies: one embedded in a
// connection record that is reused. The entry must be dropped and Idle; it
// keeps the callbacks bound to it.
func (w *TCPWheel) Init(e *WheelEnt, tc *tcp.Conn, owner any) {
	onSlow, onFast, onProbe := e.onSlow, e.onFast, e.onProbe
	if onSlow == nil {
		onSlow, onFast, onProbe = e.fireSlow, e.fireFast, e.fireProbe
	}
	*e = WheelEnt{Owner: owner, w: w, tc: tc, lastSeen: w.slow.Now(), lastFast: w.fast.Now(),
		onSlow: onSlow, onFast: onFast, onProbe: onProbe}
}

// Scrub zeroes a dropped, idle entry its owner is putting aside for reuse,
// but for the callbacks bound to it.
func (e *WheelEnt) Scrub() { *e = WheelEnt{onSlow: e.onSlow, onFast: e.onFast, onProbe: e.onProbe} }

// Idle reports that no fire of the entry is under way. A dropped, idle entry
// is touched by nobody but its owner and may be reused.
func (e *WheelEnt) Idle() bool { return e.firing == 0 }

// Drop deregisters a connection for good, cancelling any pending timers.
// Safe to call twice.
func (w *TCPWheel) Drop(e *WheelEnt) {
	e.dropped = true
	w.slow.Cancel(&e.slowT)
	w.fast.Cancel(&e.fastT)
	w.fast.Cancel(&e.probeT)
}

// Compact moves e's connection, which its Sync has just left in TIME_WAIT
// with nothing but the 2MSL timer armed, onto tw: tw's timer takes the place
// of e's, so it expires at the same tick and in the same turn among the
// timers due on it as the full connection would have, and then runs expire
// on the slow driver's thread, charged one TimerOp like any fire. e is
// dropped. Nothing but the shell's bookkeeping changes: no timer is set.
func (w *TCPWheel) Compact(e *WheelEnt, tw *TimeWaitEnt, expire func(t *kern.Thread, fired time.Duration)) {
	tw.w, tw.expire = w, expire
	w.slow.Move(&e.slowT, &tw.slowT, tw.fire)
	w.Drop(e)
}

// DropTimeWait takes a compacted connection off the wheel for good.
func (w *TCPWheel) DropTimeWait(tw *TimeWaitEnt) { w.slow.Cancel(&tw.slowT) }

func (e *TimeWaitEnt) fire() { e.w.expire(e) }

// Sync reconciles one connection with the wheel clock. Call only with the
// connection's engine lock held. It advances the tick counters to "now"
// (firing any counter whose deadline the wheel has reached — normally none
// on engine entry, exactly one when called from a wheel fire), then
// re-arms the wheel timers from the resulting counter state. On a dropped
// entry it does nothing: the engine operation that dropped it (a close, or
// the registry's handoff of an ESTABLISHED pcb whose keepalive is armed)
// is typically bracketed by an exit Sync.
func (w *TCPWheel) Sync(e *WheelEnt) {
	if e.dropped {
		return
	}
	if n := w.slow.Now() - e.lastSeen; n > 0 {
		e.lastSeen = w.slow.Now()
		e.tc.Fired = w.fired
		e.tc.AdvanceSlowTicks(int(n))
	}
	if n := w.fast.Now() - e.lastFast; n > 0 {
		e.lastFast = w.fast.Now()
		e.tc.AdvanceFastTicks(int(n))
	}
	next := e.tc.NextSlowTicks()
	if next == 0 {
		w.slow.Cancel(&e.slowT)
	} else {
		deadline := w.slow.Now() + uint64(next)
		if !e.slowT.Armed() || e.slowDeadline != deadline {
			w.slow.Set(&e.slowT, uint64(next), e.onSlow)
			e.slowDeadline = deadline
		}
	}
	if next := e.tc.NextFastTicks(); next == 0 {
		w.fast.Cancel(&e.probeT)
	} else if deadline := w.fast.Now() + uint64(next); !e.probeT.Armed() || e.probeDeadline != deadline {
		w.fast.Set(&e.probeT, uint64(next), e.onProbe)
		e.probeDeadline = deadline
	}
	if e.tc.DelAckPending() {
		if !e.fastT.Armed() {
			w.fast.Set(&e.fastT, 1, e.onFast)
		}
	} else if e.fastT.Armed() {
		w.fast.Cancel(&e.fastT)
	}
}

// fireSlow runs when the slow wheel reaches the connection's earliest
// deadline: the driver's exec acquires the engine lock, and Sync both
// fires the due counter (through the ordinary SlowTick path) and re-arms.
// If another thread already advanced the connection past this deadline
// while we waited for the lock, Sync degenerates to a no-op re-arm; if it
// dropped the entry, to nothing.
func (e *WheelEnt) fireSlow() {
	e.firing++
	e.w.execSlow(e, (*WheelEnt).sync)
	e.firing--
}

func (e *WheelEnt) sync() { e.w.Sync(e) }

// fireFast flushes the pending delayed ACK.
func (e *WheelEnt) fireFast() {
	e.firing++
	e.w.execFast(e, (*WheelEnt).flushDelAck)
	e.firing--
}

func (e *WheelEnt) flushDelAck() {
	if e.dropped {
		return
	}
	e.w.Sync(e)
	e.tc.FlushDelAck()
	e.w.Sync(e)
}

// fireProbe runs when the fast wheel reaches the tail loss probe's
// deadline: Sync catches the probe counter up, which sends the probe, and
// re-arms; like fireSlow, it does nothing more if the probe already went.
func (e *WheelEnt) fireProbe() {
	e.firing++
	e.w.execFast(e, (*WheelEnt).sync)
	e.firing--
}

// AdvanceSlow moves the slow wheel one tick, dispatching each due entry
// through exec, which must run fn(e) under that connection's engine lock
// (and charge whatever per-fire cost the shell models). fn is a function of
// the entry and not a closure over it, so a fire allocates nothing. It
// returns the number of entries fired.
func (w *TCPWheel) AdvanceSlow(exec func(e *WheelEnt, fn func(*WheelEnt))) int {
	w.execSlow = exec
	fired := w.slow.Advance(1)
	w.execSlow = nil
	return fired
}

// AdvanceFast is AdvanceSlow for the 200 ms wheel of delayed ACKs and tail
// loss probes.
func (w *TCPWheel) AdvanceFast(exec func(e *WheelEnt, fn func(*WheelEnt))) int {
	w.execFast = exec
	fired := w.fast.Advance(1)
	w.execFast = nil
	return fired
}

// DriverHooks is what differs between the shells' timer drivers: which
// lock covers a connection's engine.
type DriverHooks struct {
	// Bracket runs one whole wheel advance. Shells with one engine lock
	// for all their connections (the registry, the monolithic stacks) take
	// it here; nil runs the advance bare.
	Bracket func(t *kern.Thread, advance func())
	// Fire runs one due entry's fn, as fn(e). Shells with a lock per
	// connection (the library) take e.Owner's lock here; nil calls fn
	// directly.
	Fire func(t *kern.Thread, e *WheelEnt, fn func(*WheelEnt))
	// AfterSlow, when set, runs after each slow tick outside the bracket
	// (the interface's expiry, Netif.Expire, rides the 500 ms clock).
	AfterSlow func()
}

// Drive spawns the wheel's two driver threads, "<name>-fast" and
// "<name>-slow", in dom. Each sleeps one tick period, advances its wheel,
// and charges one TimerOp per entry fired; the slow one also expires the
// compacted entries (TimeWaitEnt) that fall due.
func (w *TCPWheel) Drive(dom *kern.Domain, name string, h DriverHooks) {
	if h.Bracket == nil {
		h.Bracket = func(_ *kern.Thread, advance func()) { advance() }
	}
	if h.Fire == nil {
		h.Fire = func(_ *kern.Thread, e *WheelEnt, fn func(*WheelEnt)) { fn(e) }
	}
	dom.Spawn(name+"-fast", func(t *kern.Thread) {
		drive(t, 200*time.Millisecond, w.AdvanceFast, h, nil, nil)
	})
	dom.Spawn(name+"-slow", func(t *kern.Thread) {
		w.expire = func(e *TimeWaitEnt) {
			t.Compute(t.Cost().TimerOp)
			e.expire(t, w.fired)
		}
		drive(t, 500*time.Millisecond, w.AdvanceSlow, h, h.AfterSlow, &w.fired)
	})
}

// drive is the body of one driver thread; fired, when set, notes each wake.
func drive(t *kern.Thread, period time.Duration, advance func(exec func(*WheelEnt, func(*WheelEnt))) int, h DriverHooks, after func(), fired *time.Duration) {
	exec := func(e *WheelEnt, fn func(*WheelEnt)) {
		t.Compute(t.Cost().TimerOp)
		h.Fire(t, e, fn)
	}
	tick := func() { advance(exec) }
	for {
		t.Sleep(period)
		if fired != nil {
			*fired = time.Duration(t.Dom.Host.S.Now())
		}
		h.Bracket(t, tick)
		if after != nil {
			after()
		}
	}
}
