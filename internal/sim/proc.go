package sim

import (
	"fmt"
	"iter"
	"os"
	"runtime/debug"
)

// Proc is a simulated thread of control: a function that the engine runs on
// a worker coroutine, one proc at a time. Code inside a proc may block using
// the proc's primitives (Sleep, Semaphore.P, Queue.Pop, ...); a blocked proc
// runs the event loop on its own stack, advancing virtual time, until the
// next thing to run is a proc — itself or another.
type Proc struct {
	s      *Sim
	name   string
	fn     func(p *Proc) // nil once the proc has finished
	w      *worker       // the coroutine running fn; nil until the first resume
	done   bool
	killed bool
	// waitOn is the Cond a WaitUntil is parked on, timedOut whether its
	// deadline woke it.
	waitOn   *Cond
	timedOut bool
}

// worker is an iter.Pull coroutine that runs procs, one after another. Only
// the hub — the goroutine inside Run — calls next, which switches into the
// worker and returns when the worker yields the proc that is to run instead
// of its own (nil: the run must stop).
type worker struct {
	next  func() (*Proc, bool)
	yield func(*Proc) bool
	p     *Proc // the proc bound to this coroutine; nil while it is idle
}

// unwound is the panic value with which park unwinds a killed proc.
type unwound struct{}

// Name returns the debug name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation the proc belongs to.
func (p *Proc) Sim() *Sim { return p.s }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Spawn starts fn as a new proc at the current virtual time. fn begins
// executing when the engine reaches the spawn event; Spawn itself returns
// immediately.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAfter(0, name, fn)
}

// SpawnAfter starts fn as a new proc d from now. It only schedules: the proc
// gets a coroutine when its first resume is dispatched.
func (s *Sim) SpawnAfter(d Dur, name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name, fn: fn}
	s.nprocs++
	s.scheduleResume(d, p)
	return p
}

// exit marks p finished and its coroutine, if it has one, free.
func (p *Proc) exit() {
	p.done = true
	p.fn = nil
	p.s.nprocs--
	p.s.current = nil
	if p.w != nil {
		p.w.p = nil
	}
}

// newWorker makes a coroutine, which starts at the first call of next, with
// a proc bound to it by then. Its body runs the proc bound to it, then
// dispatches — which returns once another proc is
// bound — and so on; it never returns. A panic or runtime.Goexit in it
// surfaces, through iter.Pull, in the hub's call of next; by then the stack a
// panic came from is gone, so it is printed here.
func (s *Sim) newWorker() *worker {
	w := &worker{}
	w.next, _ = iter.Pull(func(yield func(*Proc) bool) {
		defer func() {
			if r := recover(); r != nil {
				fmt.Fprintf(os.Stderr, "sim: panic on a worker's stack: %v\n%s", r, debug.Stack())
				panic(r)
			}
		}()
		w.yield = yield
		for {
			w.run()
			w.p.exit()
			s.dispatch(w)
		}
	})
	return w
}

// run runs w's proc until its function returns or park unwinds it because it
// was killed: that panic stops here, after the proc's deferred functions have
// run. Any other panic value is not this package's to swallow.
func (w *worker) run() {
	defer func() {
		if w.p.killed {
			if r := recover(); r != nil && r != (unwound{}) {
				panic(r)
			}
		}
	}()
	w.p.fn(w.p)
}

// nextProc fires events on the calling goroutine until one resumes a live
// proc, which it makes current and returns, or until the run must stop, when
// it returns nil.
func (s *Sim) nextProc() *Proc {
	for {
		p := s.resume
		s.resume = nil
		if p == nil {
			if s.stopped || (s.pred != nil && s.pred()) || len(s.heap) == 0 {
				return nil
			}
			if s.heap[0].at > s.end {
				s.now = s.end
				return nil
			}
			if p = s.fire(); p == nil {
				continue
			}
		}
		switch {
		case p.done: // a resume that outlived its proc
		case p.killed && p.w == nil:
			p.exit() // killed before it ever ran: never gets a coroutine
		default:
			s.current = p
			return p
		}
	}
}

// dispatch is called by a worker that has nothing to run: its proc parked or
// just returned. It fires events until a proc is to run or the run must stop.
// If the proc is w's own business — its parked proc is the one resumed, or w
// is free and the proc has yet to start — it returns at once, with no switch.
// Otherwise it yields to the hub, which switches into the worker concerned
// (or returns from Run), and comes back when it is w's turn again.
func (s *Sim) dispatch(w *worker) {
	p := s.nextProc()
	if p != nil {
		if p.w == nil && w.p == nil {
			p.w, w.p = w, p
		}
		if p.w == w {
			return
		}
	}
	if w.p == nil {
		s.idle = append(s.idle, w)
	}
	w.yield(p)
}

// hub is the body of Run: it fires events until a proc is to run, switches
// into that proc's worker — an idle or a new one if the proc has yet to
// start — and, when a worker yields, into the one that worker names.
func (s *Sim) hub() {
	for p := s.nextProc(); p != nil; p, _ = p.w.next() {
		if n := len(s.idle); p.w == nil && n > 0 {
			p.w, s.idle = s.idle[n-1], s.idle[:n-1]
		} else if p.w == nil {
			p.w = s.newWorker()
		}
		p.w.p = p // as it is already if the proc has started
	}
}

// Kill tears a proc down abruptly: its stack unwinds at its current (or
// next) blocking point without executing any further user code but its
// deferred functions — no exit path, no cleanup. This models a crashing
// process: whatever the proc had claimed (semaphores held, queue entries,
// shared state) stays exactly as it was at the kill point. Killing an
// already-dead proc is a no-op.
//
// Kill may be called from any simulation context. A proc that kills itself
// (directly or by killing its own domain) keeps running until its next
// blocking point, then dies there.
func (s *Sim) Kill(p *Proc) {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if s.current == p {
		return // self-kill: dies at the next park
	}
	// Resume the parked proc so it can unwind now (or, never started, be
	// dropped); any other pending resume events for it become no-ops once
	// done is set.
	s.scheduleResume(0, p)
}

// resumeNext asks the dispatch loop to run p before it pops another event.
// It is for an event callback that must wake a proc as part of the same
// event (Cond.WaitUntil's timeout), and may be called once per callback.
func (s *Sim) resumeNext(p *Proc) { s.resume = p }

// park gives up the proc's turn and returns when it is next resumed; in
// between, the proc's worker dispatches events itself and, if another proc is
// to run, yields to the hub. A killed proc unwinds from here instead of
// returning to its user code: its deferred functions run, and worker.run
// stops the panic.
func (p *Proc) park() {
	if !p.killed { // a self-killed proc dies at its next blocking point
		p.s.current = nil
		p.s.dispatch(p.w)
	}
	if p.killed {
		panic(unwound{})
	}
}

// ensureCurrent panics if called from outside the running proc; the blocking
// primitives require proc context.
func (p *Proc) ensureCurrent() {
	if p.s.current != p {
		panic(fmt.Sprintf("sim: blocking call on proc %q from outside its own context", p.name))
	}
}

// Sleep blocks the proc for d of virtual time.
func (p *Proc) Sleep(d Dur) {
	p.ensureCurrent()
	p.s.scheduleResume(d, p)
	p.park()
}

// SleepUntil blocks the proc until absolute time at (no-op if at <= now).
func (p *Proc) SleepUntil(at Time) {
	if at <= p.s.now {
		return
	}
	p.Sleep(at.Sub(p.s.now))
}

// Yield reschedules the proc at the current time behind already-pending
// events, letting same-time work interleave.
func (p *Proc) Yield() { p.Sleep(0) }
