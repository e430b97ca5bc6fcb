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
//   - Each connection registers a WheelEnt holding one slow-wheel and one
//     fast-wheel timer plus lastSeen, the slow tick the connection's
//     counters were last advanced to.
//   - Sync, called with the connection's engine locked, first catches the
//     tick counters up to the wheel clock (AdvanceSlowTicks — O(fires),
//     and nothing can have fired unseen because the wheel is always armed
//     for the earliest deadline), then re-arms the slow timer for
//     NextSlowTicks and the fast timer iff a delayed ACK is pending.
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
	// The timers' callbacks, bound once: Sync re-arms on most segments.
	onSlow, onFast func()
	// dropped entries stay dropped: the shell no longer drives this engine
	// (it closed, or was handed to another shell while still live), so a
	// later Sync or a fire already past the wheel must not re-arm it.
	dropped bool
	// firing counts fires of this entry that are under way: a driver thread
	// has taken the timer off the wheel and is charging for it, or waiting
	// for the engine lock, and will touch the entry again.
	firing int
}

// NewTCPWheel builds the two wheels: the slow wheel spans 2^16 ticks
// (~9 virtual hours at 500 ms), far beyond the largest BSD timer; the fast
// wheel only ever holds next-tick delayed-ACK deadlines.
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
// keeps the two callbacks bound to it.
func (w *TCPWheel) Init(e *WheelEnt, tc *tcp.Conn, owner any) {
	onSlow, onFast := e.onSlow, e.onFast
	if onSlow == nil {
		onSlow, onFast = e.fireSlow, e.fireFast
	}
	*e = WheelEnt{Owner: owner, w: w, tc: tc, lastSeen: w.slow.Now(), onSlow: onSlow, onFast: onFast}
}

// Scrub zeroes a dropped, idle entry its owner is putting aside for reuse,
// but for the callbacks bound to it.
func (e *WheelEnt) Scrub() { *e = WheelEnt{onSlow: e.onSlow, onFast: e.onFast} }

// Idle reports that no fire of the entry is under way. A dropped, idle entry
// is touched by nobody but its owner and may be reused.
func (e *WheelEnt) Idle() bool { return e.firing == 0 }

// Drop deregisters a connection for good, cancelling any pending timers.
// Safe to call twice.
func (w *TCPWheel) Drop(e *WheelEnt) {
	e.dropped = true
	w.slow.Cancel(&e.slowT)
	w.fast.Cancel(&e.fastT)
}

// Sync reconciles one connection with the wheel clock. Call only with the
// connection's engine lock held. It advances the tick counters to "now"
// (firing any counter whose deadline the wheel has reached — normally none
// on engine entry, exactly one when called from a wheel fire), then
// re-arms both wheel timers from the resulting counter state. On a dropped
// entry it does nothing: the engine operation that dropped it (a close, or
// the registry's handoff of an ESTABLISHED pcb whose keepalive is armed)
// is typically bracketed by an exit Sync.
func (w *TCPWheel) Sync(e *WheelEnt) {
	if e.dropped {
		return
	}
	if n := w.slow.Now() - e.lastSeen; n > 0 {
		e.lastSeen = w.slow.Now()
		e.tc.AdvanceSlowTicks(int(n))
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
	e.tc.FastTick()
	e.w.Sync(e)
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

// AdvanceFast is AdvanceSlow for the 200 ms delayed-ACK wheel.
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
	// (the reassembly queue's expiry rides the 500 ms clock).
	AfterSlow func()
}

// Drive spawns the wheel's two driver threads, "<name>-fast" and
// "<name>-slow", in dom. Each sleeps one tick period, advances its wheel,
// and charges one TimerOp per entry fired.
func (w *TCPWheel) Drive(dom *kern.Domain, name string, h DriverHooks) {
	if h.Bracket == nil {
		h.Bracket = func(_ *kern.Thread, advance func()) { advance() }
	}
	if h.Fire == nil {
		h.Fire = func(_ *kern.Thread, e *WheelEnt, fn func(*WheelEnt)) { fn(e) }
	}
	dom.Spawn(name+"-fast", func(t *kern.Thread) {
		drive(t, 200*time.Millisecond, w.AdvanceFast, h, nil)
	})
	dom.Spawn(name+"-slow", func(t *kern.Thread) {
		drive(t, 500*time.Millisecond, w.AdvanceSlow, h, h.AfterSlow)
	})
}

// drive is the body of one driver thread.
func drive(t *kern.Thread, period time.Duration, advance func(exec func(*WheelEnt, func(*WheelEnt))) int, h DriverHooks, after func()) {
	exec := func(e *WheelEnt, fn func(*WheelEnt)) {
		t.Compute(t.Cost().TimerOp)
		h.Fire(t, e, fn)
	}
	tick := func() { advance(exec) }
	for {
		t.Sleep(period)
		h.Bracket(t, tick)
		if after != nil {
			after()
		}
	}
}
