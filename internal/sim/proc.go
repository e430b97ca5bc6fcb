package sim

import (
	"fmt"
	"runtime"
)

// Proc is a simulated thread of control: a function that the engine runs on
// a worker goroutine, one proc at a time. Code inside a proc may block using
// the proc's primitives (Sleep, Semaphore.P, Queue.Pop, ...); a blocked proc
// runs the event loop on its own goroutine, advancing virtual time, until the
// next thing to run is a proc — itself or another.
type Proc struct {
	s      *Sim
	name   string
	fn     func(p *Proc) // nil once the proc has finished
	w      *worker       // the goroutine running fn; nil until the first resume
	done   bool
	killed bool
}

// worker is a goroutine that can hold the baton: the one inside Run
// (Sim.main, which never has a proc) or one that runs procs, one after
// another. Whoever hands it the baton sends on wake.
type worker struct {
	// Capacity 1: at most one hand-off is ever outstanding (there is one
	// baton), and the sender must not wait for a receiver that has given the
	// baton away but not yet reached its receive.
	wake chan struct{}
	p    *Proc // the proc bound to this goroutine; nil while it is idle
}

func newWorker() *worker { return &worker{wake: make(chan struct{}, 1)} }

// spare reports whether w is a proc-running goroutine without a proc: it can
// take an unstarted one, or wait in the idle pool.
func (s *Sim) spare(w *worker) bool { return w != nil && w != s.main && w.p == nil }

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
// gets a goroutine when its first resume is dispatched.
func (s *Sim) SpawnAfter(d Dur, name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name, fn: fn}
	s.nprocs++
	s.scheduleResume(d, p)
	return p
}

// exit marks p finished and its goroutine, if it has one, free.
func (p *Proc) exit() {
	p.done = true
	p.fn = nil
	p.s.nprocs--
	p.s.current = nil
	if p.w != nil {
		p.w.p = nil
	}
}

// work is the body of a worker goroutine: run the proc bound to it, then
// dispatch — which returns once another proc is bound — and so on.
func (s *Sim) work(w *worker) {
	// The loop below never returns: this runs on runtime.Goexit (a killed
	// proc in park, t.FailNow in a test) with the goroutine holding the
	// baton, which it passes on without waiting. A panic is re-raised
	// instead, so that it ends the process at once, as on any goroutine,
	// and no event runs on a panicking stack.
	defer func() {
		if r := recover(); r != nil {
			panic(r)
		}
		if w.p != nil {
			w.p.exit()
		}
		s.dispatch(nil)
	}()
	<-w.wake
	for {
		w.p.fn(w.p)
		w.p.exit()
		s.dispatch(w)
	}
}

// nextProc fires events on the calling goroutine until one resumes a live
// proc, which it returns, or until the run must stop, when it returns nil.
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
			p.exit() // killed before it ever ran: never gets a goroutine
		default:
			return p
		}
	}
}

// dispatch is called by the goroutine that holds the baton and has nothing
// to run: Run's, a parked proc's, one whose proc just returned, or (w nil) one
// that is exiting. It fires events until a proc is to run or the run must
// stop. If that is w's own business — its parked proc is the one resumed, a
// not yet started proc can take over this free goroutine, Run's goroutine is
// told to stop — it returns at once, with no goroutine switch. Otherwise it
// hands the baton to the goroutine concerned and blocks until it is w's turn
// again.
func (s *Sim) dispatch(w *worker) {
	to := s.main
	if p := s.nextProc(); p != nil {
		s.current = p
		if p.w == nil {
			s.bind(p, w)
		}
		to = p.w
	}
	if to == w {
		return
	}
	if s.spare(w) {
		s.idle = append(s.idle, w)
	}
	to.wake <- struct{}{}
	if w != nil {
		<-w.wake
	}
}

// bind gives the unstarted proc p a goroutine: w itself if it is a free
// worker, else an idle one, else a new one.
func (s *Sim) bind(p *Proc, w *worker) {
	switch n := len(s.idle); {
	case s.spare(w):
	case n > 0:
		w = s.idle[n-1]
		s.idle = s.idle[:n-1]
	default:
		w = newWorker()
		go s.work(w)
	}
	p.w, w.p = w, p
}

// Kill tears a proc down abruptly: its goroutine unwinds at its current (or
// next) blocking point without executing any further user code — no exit
// path, no cleanup. This models a crashing process: whatever the proc had
// claimed (semaphores held, queue entries, shared state) stays exactly as it
// was at the kill point. Killing an already-dead proc is a no-op.
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

// Killed reports whether the proc was torn down by Kill.
func (p *Proc) Killed() bool { return p.killed }

// Done reports whether the proc has finished (returned or been killed).
func (p *Proc) Done() bool { return p.done }

// resumeNext asks the dispatch loop to run p before it pops another event.
// It is for an event callback that must wake a proc as part of the same
// event (Cond.WaitUntil's timeout), and may be called once per callback.
func (s *Sim) resumeNext(p *Proc) { s.resume = p }

// park gives up the proc's turn and returns when it is next resumed; in
// between, the proc's goroutine dispatches events itself and, if another
// proc is to run, wakes it and blocks. A proc killed while parked unwinds
// here instead of returning to its user code (work's deferred function does
// the bookkeeping and passes the baton on).
func (p *Proc) park() {
	if p.killed {
		runtime.Goexit() // self-kill: die at the blocking point
	}
	p.s.current = nil
	p.s.dispatch(p.w)
	if p.killed {
		runtime.Goexit()
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
