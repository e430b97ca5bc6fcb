package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// goid identifies the calling goroutine, so the tests can say on whose
// stack an event callback ran.
func goid() int {
	buf := make([]byte, 64)
	buf = bytes.TrimPrefix(buf[:runtime.Stack(buf, false)], []byte("goroutine "))
	id, err := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}

// A parked proc fires events on its own goroutine; one of them kills it. It
// must die at its park point and still pass the baton on: later events fire
// and a proc spawned afterwards runs.
func TestKillDispatchingProc(t *testing.T) {
	s := New()
	var victimG, killerG int
	var resumed, laterEvent, laterProc bool
	victim := s.Spawn("victim", func(p *Proc) {
		victimG = goid()
		p.Sleep(time.Second)
		resumed = true
	})
	s.After(time.Millisecond, func() {
		killerG = goid()
		s.Kill(victim)
	})
	s.After(2*time.Millisecond, func() { laterEvent = true })
	s.SpawnAfter(3*time.Millisecond, "later", func(p *Proc) {
		p.Sleep(time.Millisecond)
		laterProc = true
	})
	end := s.Run(0)
	if killerG != victimG || victimG == goid() {
		t.Fatalf("kill ran on goroutine %d, victim on %d, test on %d: want the victim dispatching", killerG, victimG, goid())
	}
	if resumed || !victim.done {
		t.Fatalf("victim resumed=%v done=%v, want false/true", resumed, victim.done)
	}
	if !laterEvent || !laterProc {
		t.Fatalf("after the kill: event fired=%v, proc ran=%v", laterEvent, laterProc)
	}
	// The victim's own one-second resume is still popped (a no-op).
	if end != Time(time.Second) || s.nprocs != 0 {
		t.Fatalf("run ended at %v with %d procs", end, s.nprocs)
	}
}

// A proc parked on another goroutine is killed by a running proc; the
// killer carries on and finishes.
func TestKillProcParkedOnAnotherGoroutine(t *testing.T) {
	s := New()
	sem := s.NewSemaphore("never", 0)
	var resumed, unwound, killerDone bool
	victim := s.Spawn("victim", func(p *Proc) {
		defer func() { unwound = true }()
		sem.P(p)
		resumed = true
	})
	s.Spawn("killer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Kill(victim)
		p.Sleep(time.Millisecond)
		killerDone = true
	})
	s.Run(0)
	if resumed || !unwound || !victim.done {
		t.Fatalf("victim resumed=%v unwound=%v done=%v", resumed, unwound, victim.done)
	}
	if !killerDone || s.nprocs != 0 {
		t.Fatalf("killer done=%v, procs %d", killerDone, s.nprocs)
	}
}

// A proc killed before its first resume never runs and never gets a
// goroutine; both its resume events are consumed as no-ops.
func TestKillNeverStartedProc(t *testing.T) {
	s := New()
	before := runtime.NumGoroutine()
	ran := false
	p := s.SpawnAfter(time.Second, "unborn", func(p *Proc) { ran = true })
	s.After(time.Millisecond, func() { s.Kill(p) })
	end := s.Run(0)
	if ran || !p.done || !p.killed || s.nprocs != 0 {
		t.Fatalf("ran=%v done=%v killed=%v procs=%d", ran, p.done, p.killed, s.nprocs)
	}
	if fired, _, _ := s.Counters(); fired != 3 || end != Time(time.Second) {
		t.Fatalf("fired %d events, ended at %v; want 3 and 1s", fired, end)
	}
	// Goroutines of earlier tests may still be exiting: only growth counts.
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines %d -> %d: a proc that never ran got one", before, n)
	}
}

// A self-killed proc dies at its next park holding the baton; its exiting
// goroutine must start the next proc, which has none yet.
func TestSelfKillPassesBatonToUnstartedProc(t *testing.T) {
	s := New()
	var past, nextRan bool
	s.Spawn("self", func(p *Proc) {
		s.Kill(p)
		p.Sleep(time.Millisecond)
		past = true
	})
	s.SpawnAfter(time.Microsecond, "next", func(p *Proc) {
		p.Sleep(time.Second)
		nextRan = true
	})
	s.Run(0)
	if past || !nextRan || s.nprocs != 0 {
		t.Fatalf("self-killed proc survived=%v, next ran=%v, procs %d", past, nextRan, s.nprocs)
	}
}

// Run reaches its limit while a parked proc is the one dispatching: the
// proc gives the baton back and stays parked; a second Run resumes it where
// it was, on the same goroutine.
func TestRunLimitWhileProcDispatches(t *testing.T) {
	s := New()
	var wakes []Time
	gs := map[int]bool{}
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10 * time.Millisecond)
			wakes = append(wakes, p.Now())
			gs[goid()] = true
		}
	})
	if end := s.Run(25 * time.Millisecond); end != Time(25*time.Millisecond) {
		t.Fatalf("first run ended at %v, want 25ms", end)
	}
	if len(wakes) != 2 || s.nprocs != 1 || len(s.heap) != 1 {
		t.Fatalf("at the limit: %d wakes, %d procs, %d pending", len(wakes), s.nprocs, len(s.heap))
	}
	if end := s.Run(0); end != Time(100*time.Millisecond) {
		t.Fatalf("second run ended at %v, want 100ms", end)
	}
	if len(wakes) != 10 || wakes[2] != Time(30*time.Millisecond) || s.nprocs != 0 {
		t.Fatalf("after the second run: wakes %v, procs %d", wakes, s.nprocs)
	}
	if len(gs) != 1 {
		t.Fatalf("proc ran on %d goroutines, want 1", len(gs))
	}
}

// pred is checked between every two events wherever they fire: an event
// fired from a parked proc's goroutine turns it true, and the run stops
// before the next event of the same instant.
func TestRunUntilPredOnProcGoroutine(t *testing.T) {
	s := New()
	var procG, firstG int
	var first, second bool
	s.Spawn("sleeper", func(p *Proc) {
		procG = goid()
		p.Sleep(time.Second)
	})
	s.After(time.Millisecond, func() { first, firstG = true, goid() })
	s.After(time.Millisecond, func() { second = true })
	end := s.RunUntil(0, func() bool { return first })
	if firstG != procG {
		t.Fatalf("event ran on goroutine %d, want the parked proc's %d", firstG, procG)
	}
	if !first || second || end != Time(time.Millisecond) || len(s.heap) != 2 {
		t.Fatalf("first=%v second=%v end=%v pending=%d", first, second, end, len(s.heap))
	}
	s.Run(0)
	if !second || s.nprocs != 0 {
		t.Fatalf("continuation: second=%v procs=%d", second, s.nprocs)
	}
}

// WaitUntil's timeout fires on the goroutine of the very proc it wakes. The
// proc resumes inside that event: after an earlier event of the same
// instant, before a later one.
func TestWaitUntilTimeoutOnDispatchingProc(t *testing.T) {
	s := New()
	c := s.NewCond()
	var log []string
	deadline := Time(5 * time.Millisecond)
	s.At(deadline, func() { log = append(log, "before") })
	s.Spawn("waiter", func(p *Proc) {
		ok := c.WaitUntil(p, deadline)
		log = append(log, fmt.Sprintf("woke %v at %v", ok, p.Now()))
		s.At(deadline, func() { log = append(log, "after") })
		p.Sleep(time.Millisecond)
		log = append(log, "slept")
	})
	s.Run(0)
	want := []string{"before", "woke false at 5ms", "after", "slept"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log %q, want %q", log, want)
	}
	if fired, _, _ := s.Counters(); fired != 5 {
		t.Fatalf("fired %d events, want 5 (spawn, before, timeout, after, sleep)", fired)
	}
}

// Spawning only schedules, and a finishing proc's goroutine becomes the
// next proc: ten thousand short procs, one after another, need a handful of
// goroutines however many were spawned ahead.
func TestSequentialProcsReuseGoroutines(t *testing.T) {
	s := New()
	const n = 10000
	base := runtime.NumGoroutine()
	peak, ran := 0, 0
	for i := 0; i < n; i++ {
		s.SpawnAfter(Dur(i)*time.Microsecond, "short", func(p *Proc) {
			p.Sleep(500 * time.Nanosecond)
			ran++
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
		})
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("spawning %d procs started %d goroutines", n, g-base)
	}
	s.Run(0)
	if ran != n || s.nprocs != 0 {
		t.Fatalf("%d of %d procs ran, %d left", ran, n, s.nprocs)
	}
	if peak > base+2 {
		t.Fatalf("goroutines peaked at %d over a base of %d", peak, base)
	}
}

// Overlapping procs get a worker each while they overlap and give it back:
// the pool follows concurrency, not the number spawned.
func TestWorkerPoolFollowsConcurrency(t *testing.T) {
	s := New()
	const waves, width = 200, 8
	base := runtime.NumGoroutine()
	peak := 0
	for w := 0; w < waves; w++ {
		for k := 0; k < width; k++ {
			s.SpawnAfter(Dur(w)*time.Millisecond, "wave", func(p *Proc) {
				p.Sleep(500 * time.Microsecond)
				if g := runtime.NumGoroutine(); g > peak {
					peak = g
				}
			})
		}
	}
	s.Run(0)
	if s.nprocs != 0 || peak > base+width {
		t.Fatalf("procs left %d; goroutines peaked at %d over a base of %d with %d at a time", s.nprocs, peak, base, width)
	}
	if len(s.idle) != width {
		t.Fatalf("%d idle workers at the end, want %d", len(s.idle), width)
	}
}
