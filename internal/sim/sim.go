// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock (nanosecond resolution) and an event heap
// ordered by (time, sequence). Simulated threads of control ("procs") run
// strictly one at a time, on workers that are iter.Pull coroutines. There is
// no engine goroutine between them: exactly one goroutine at a time holds the
// baton, and a proc that parks (by sleeping, waiting on a semaphore, popping
// an empty queue, and so on) keeps it and runs the event loop itself — it pops
// and fires events on its own stack and simply returns when the next resume is
// its own. When it is another proc's, the worker yields to the hub, the
// goroutine that called Run or RunUntil, which switches into that proc's
// worker: two coroutine switches, neither of which passes through the Go
// scheduler or a channel. The hub gets the baton back for good only when the
// run must stop. Event callbacks therefore run on whichever goroutine holds
// the baton: they must not block and must not depend on goroutine identity.
//
// Kill unwinds its victim with a private panic value that the worker stops
// once the proc's deferred functions have run, so proc code must not recover a
// value it does not own. Any other panic on a worker's stack, and a
// runtime.Goexit there (t.FailNow), surfaces in the hub — on the goroutine
// that called Run — and leaves the Sim refusing to run again. Workers are
// reused, so a world's goroutine count follows how many procs are alive at
// once, not how many it ever spawned. Idle workers and procs still blocked
// when a Sim is abandoned stay suspended for the life of the process.
//
// The result is fully sequential semantics — protocol and application code
// can be written in a natural blocking style with no data races and no
// wall-clock dependence — while the (time, seq) ordering makes every run
// reproducible.
//
// The engine is built for wall-clock speed as well as determinism: event
// records live on an internal free list (no allocation per scheduled event),
// the ready queue is a flat 4-ary array heap (no container/heap interface
// dispatch, better cache behaviour than a binary pointer heap), cancelled
// timers are removed eagerly rather than left to surface at their deadline,
// and the hot schedulings (proc resume, argument-carrying callbacks) avoid
// closure allocations entirely.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Dur is a span of virtual time. It aliases time.Duration so callers can use
// the familiar constants (time.Millisecond etc.) without importing anything
// extra.
type Dur = time.Duration

// String formats a Time using time.Duration notation (e.g. "1.5ms").
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d Dur) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Dur { return Dur(t - u) }

// event is one pooled event record. Exactly one of fn, fnArg, or proc is
// set: fn is a plain callback, fnArg is called with arg (letting hot paths
// schedule static functions without a closure allocation), and proc resumes
// a parked proc. gen distinguishes a live record from a recycled one so
// stale Timers cannot cancel an unrelated event.
type event struct {
	at      Time
	seq     uint64
	fn      func()
	fnArg   func(any)
	arg     any
	proc    *Proc
	gen     uint32
	heapIdx int32 // index in Sim.heap; -1 when free or already fired
}

// heapEnt is one ready-queue entry. The ordering key is kept inline so sift
// comparisons never chase the record pointer.
type heapEnt struct {
	at  Time
	seq uint64
	rec int32
}

func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Sim is a discrete-event simulation instance. It is not safe for concurrent
// use from multiple OS threads; all interaction happens either before Run,
// from within event callbacks, or from within procs (which the engine
// serializes).
type Sim struct {
	now     Time
	seq     uint64
	heap    []heapEnt
	records []event
	free    []int32 // free-list of record slots (LIFO)
	current *Proc
	nprocs  int // live procs (spawned, not yet finished)

	// The run in progress: dispatch stops at the first of Stop, pred() true,
	// an empty heap, or the next event lying past end.
	stopped bool
	pred    func() bool
	end     Time

	running bool      // inside RunUntil; stays set if a panic or Goexit ended it
	idle    []*worker // coroutines whose proc returned, waiting for another
	resume  *Proc     // set by a callback: run this proc before the next event

	// Counters (diagnostics only; never consulted by the engine).
	fired     int64
	cancelled int64
	maxHeap   int
}

// Counters reports cumulative engine activity: events fired, timers
// cancelled before firing, and the high-water mark of the event heap.
func (s *Sim) Counters() (fired, cancelled int64, maxHeap int) {
	return s.fired, s.cancelled, s.maxHeap
}

// New creates an empty simulation at time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// ---------------------------------------------------------------------------
// Event pool and 4-ary heap
// ---------------------------------------------------------------------------

// alloc takes a record from the free list (or grows the arena) and pushes it
// onto the heap, returning the slot index.
func (s *Sim) alloc(at Time) int32 {
	var rec int32
	if n := len(s.free); n > 0 {
		rec = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.records = append(s.records, event{})
		rec = int32(len(s.records) - 1)
	}
	e := &s.records[rec]
	e.at = at
	e.seq = s.seq
	s.seq++
	s.heapPush(heapEnt{at: e.at, seq: e.seq, rec: rec})
	return rec
}

// release clears a record's payload and returns the slot to the free list.
// The generation bump invalidates any Timer still holding the slot.
func (s *Sim) release(rec int32) {
	e := &s.records[rec]
	e.fn = nil
	e.fnArg = nil
	e.arg = nil
	e.proc = nil
	e.gen++
	e.heapIdx = -1
	s.free = append(s.free, rec)
}

func (s *Sim) heapPush(ent heapEnt) {
	s.heap = append(s.heap, ent)
	if len(s.heap) > s.maxHeap {
		s.maxHeap = len(s.heap)
	}
	s.siftUp(len(s.heap) - 1)
}

// heapRemove deletes the entry at heap index i, restoring heap order.
func (s *Sim) heapRemove(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	s.heap[i] = last
	s.records[last.rec].heapIdx = int32(i)
	j := s.siftDown(i)
	s.siftUp(j)
}

func (s *Sim) siftUp(i int) {
	ent := s.heap[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(ent, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.records[s.heap[i].rec].heapIdx = int32(i)
		i = p
	}
	s.heap[i] = ent
	s.records[ent.rec].heapIdx = int32(i)
}

// siftDown restores heap order below i, returning the entry's final index.
func (s *Sim) siftDown(i int) int {
	n := len(s.heap)
	ent := s.heap[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(s.heap[j], s.heap[m]) {
				m = j
			}
		}
		if !entLess(s.heap[m], ent) {
			break
		}
		s.heap[i] = s.heap[m]
		s.records[s.heap[i].rec].heapIdx = int32(i)
		i = m
	}
	s.heap[i] = ent
	s.records[ent.rec].heapIdx = int32(i)
	return i
}

// ---------------------------------------------------------------------------
// Timers and scheduling
// ---------------------------------------------------------------------------

// Timer identifies a scheduled event so it can be cancelled. The zero Timer
// is inert.
type Timer struct {
	s   *Sim
	rec int32
	gen uint32
}

// Cancel prevents the timer's callback from running. The event is removed
// from the heap immediately (its record returns to the free list), so a
// cancel-heavy workload — a connection re-arming its retransmission timer on
// every segment — cannot accumulate dead events until their deadlines pass.
// Cancelling an already fired or already cancelled timer is a no-op. It
// reports whether the callback was still pending.
func (t Timer) Cancel() bool {
	if t.s == nil {
		return false
	}
	e := &t.s.records[t.rec]
	if e.gen != t.gen || e.heapIdx < 0 {
		return false
	}
	t.s.heapRemove(int(e.heapIdx))
	t.s.release(t.rec)
	t.s.cancelled++
	return true
}

// Pending reports whether the timer's callback has yet to run.
func (t Timer) Pending() bool {
	if t.s == nil {
		return false
	}
	e := &t.s.records[t.rec]
	return e.gen == t.gen && e.heapIdx >= 0
}

// checkPast panics on scheduling in the past: it would silently corrupt
// causality.
func (s *Sim) checkPast(at Time) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
}

// At schedules fn to run at absolute virtual time at.
func (s *Sim) At(at Time, fn func()) Timer {
	s.checkPast(at)
	rec := s.alloc(at)
	e := &s.records[rec]
	e.fn = fn
	return Timer{s: s, rec: rec, gen: e.gen}
}

// AtArg schedules fn(arg) at absolute virtual time at. Because fn is
// typically a static function and arg a pooled object, this path performs no
// closure allocation — it is the form the packet hot path uses.
func (s *Sim) AtArg(at Time, fn func(any), arg any) Timer {
	s.checkPast(at)
	rec := s.alloc(at)
	e := &s.records[rec]
	e.fnArg = fn
	e.arg = arg
	return Timer{s: s, rec: rec, gen: e.gen}
}

// After schedules fn to run d from now.
func (s *Sim) After(d Dur, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// AfterArg schedules fn(arg) to run d from now, without allocating.
func (s *Sim) AfterArg(d Dur, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return s.AtArg(s.now.Add(d), fn, arg)
}

// scheduleResume schedules p to be resumed d from now. This is the proc
// handoff fast path: no closure, no allocation beyond the pooled record.
func (s *Sim) scheduleResume(d Dur, p *Proc) {
	if d < 0 {
		d = 0
	}
	rec := s.alloc(s.now.Add(d))
	s.records[rec].proc = p
}

// Stop terminates the run loop after the current event or proc step
// completes. Pending events are discarded.
func (s *Sim) Stop() { s.stopped = true }

// fire pops the root event. A callback runs here, on the calling goroutine;
// a proc resume is returned for dispatch to hand the baton to.
func (s *Sim) fire() *Proc {
	s.fired++
	rec := s.heap[0].rec
	s.heapRemove(0)
	e := &s.records[rec]
	s.now = e.at
	fn, fnArg, arg, proc := e.fn, e.fnArg, e.arg, e.proc
	s.release(rec)
	switch {
	case proc != nil:
		return proc
	case fnArg != nil:
		fnArg(arg)
	default:
		fn()
	}
	return nil
}

// Run executes events until the heap is empty, the time limit is exceeded,
// or Stop is called. A limit of 0 means no limit. It returns the virtual
// time at which the run ended.
//
// Procs that are still blocked when Run returns remain parked; a subsequent
// Run continues the simulation.
func (s *Sim) Run(limit Dur) Time { return s.RunUntil(limit, nil) }

// RunUntil executes events until pred() returns true (checked after every
// event), the heap drains, or the time limit passes. pred, like an event
// callback, runs on whichever goroutine holds the baton.
func (s *Sim) RunUntil(limit Dur, pred func() bool) Time {
	if s.running {
		panic("sim: Run called from inside a run, or after a panic ended one")
	}
	s.running = true
	s.end = Time(1<<62 - 1)
	if limit > 0 {
		s.end = s.now.Add(limit)
	}
	s.stopped = false
	s.pred = pred
	s.hub()
	s.pred = nil
	s.running = false
	return s.now
}
