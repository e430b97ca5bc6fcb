package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// A killed proc unwinds by a panic that its worker stops: the proc's
// deferred functions run, last first, when the kill's resume is dispatched —
// before any event scheduled after the kill.
func TestKilledProcRunsDefersBeforeLaterEvents(t *testing.T) {
	s := New()
	sem := s.NewSemaphore("never", 0)
	var log []string
	victim := s.Spawn("victim", func(p *Proc) {
		defer func() { log = append(log, "outer") }()
		defer func() { log = append(log, "inner") }()
		sem.P(p)
		log = append(log, "resumed")
	})
	s.After(time.Millisecond, func() {
		s.After(0, func() { log = append(log, "earlier") })
		s.Kill(victim)
		s.After(0, func() { log = append(log, "later") })
	})
	s.Run(0)
	if want := "[earlier inner outer later]"; fmt.Sprint(log) != want {
		t.Fatalf("log %v, want %v", log, want)
	}
	if !victim.done || s.nprocs != 0 {
		t.Fatalf("victim done=%v, procs %d", victim.done, s.nprocs)
	}
}

// The worker stops only the unwinding of a proc that was killed. A killed
// proc that panics with a value of its own is not silenced.
func TestKilledProcOwnPanicIsNotSwallowed(t *testing.T) {
	s := New()
	s.Spawn("self", func(p *Proc) {
		s.Kill(p)
		panic("mine")
	})
	if got := runRecovering(s); got != "mine" {
		t.Fatalf("recovered %v, want the proc's own value", got)
	}
}

// runRecovering runs s to the end and returns what Run panicked with.
func runRecovering(s *Sim) (r any) {
	defer func() { r = recover() }()
	s.Run(0)
	return nil
}

// A panic in a proc, or in an event that a parked proc fires, surfaces with
// its own value on the goroutine that called Run, where it can be recovered;
// the Sim then refuses to run again.
func TestPanicSurfacesOnRunCaller(t *testing.T) {
	type mine struct{ n int }
	cases := map[string]func(s *Sim){
		"proc": func(s *Sim) {
			s.Spawn("bad", func(p *Proc) {
				p.Sleep(time.Millisecond)
				panic(mine{7})
			})
		},
		"event fired by a parked proc": func(s *Sim) {
			s.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Second) })
			s.After(time.Millisecond, func() { panic(mine{7}) })
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			s := New()
			build(s)
			other := false
			s.SpawnAfter(time.Minute, "other", func(p *Proc) { other = true })
			if got := runRecovering(s); got != (mine{7}) {
				t.Fatalf("recovered %v, want %v", got, mine{7})
			}
			if got := runRecovering(s); got == nil || got == (mine{7}) || other {
				t.Fatalf("second Run: recovered %v, other proc ran=%v; want a refusal", got, other)
			}
		})
	}
}

// runtime.Goexit inside a proc (t.FailNow) ends the goroutine that called
// Run: its deferred functions run and nothing after Run does.
func TestGoexitInProcEndsRunCaller(t *testing.T) {
	s := New()
	s.Spawn("quitter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		s.Run(0)
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned to its caller after a Goexit in a proc")
	}
}

// Kill reaches a parked proc whoever is dispatching when it is called —
// another parked proc's worker or the hub — and a proc that has not started.
// Each time the victim unwinds on its own stack and the run carries on.
func TestKillFromEveryDispatcher(t *testing.T) {
	t.Run("another proc dispatching", func(t *testing.T) {
		s := New()
		sem := s.NewSemaphore("never", 0)
		var victimG, unwoundG, killerG, dispatcherG int
		victim := s.Spawn("victim", func(p *Proc) {
			victimG = goid()
			defer func() { unwoundG = goid() }()
			sem.P(p)
		})
		slept := false
		s.Spawn("dispatcher", func(p *Proc) {
			dispatcherG = goid()
			p.Sleep(time.Second)
			slept = true
		})
		s.After(time.Millisecond, func() {
			killerG = goid()
			s.Kill(victim)
		})
		s.Run(0)
		if killerG != dispatcherG || unwoundG != victimG || victimG == dispatcherG {
			t.Fatalf("kill on goroutine %d (dispatcher %d), unwound on %d (victim %d)", killerG, dispatcherG, unwoundG, victimG)
		}
		if !victim.done || !slept || s.nprocs != 0 {
			t.Fatalf("victim done=%v, dispatcher finished=%v, procs %d", victim.done, slept, s.nprocs)
		}
	})
	t.Run("hub dispatching", func(t *testing.T) {
		s := New()
		sem := s.NewSemaphore("never", 0)
		var victimG, unwoundG, killerG int
		victim := s.Spawn("victim", func(p *Proc) {
			victimG = goid()
			defer func() { unwoundG = goid() }()
			sem.P(p)
		})
		s.Run(0) // the victim parks; the heap drains
		later := false
		s.After(time.Millisecond, func() {
			killerG = goid()
			s.Kill(victim)
		})
		s.After(2*time.Millisecond, func() { later = true })
		s.Run(0)
		if killerG != goid() || unwoundG != victimG || victimG == goid() {
			t.Fatalf("kill on goroutine %d (hub %d), unwound on %d (victim %d)", killerG, goid(), unwoundG, victimG)
		}
		if !victim.done || !later || s.nprocs != 0 {
			t.Fatalf("victim done=%v, later event=%v, procs %d", victim.done, later, s.nprocs)
		}
	})
	t.Run("before the first resume", func(t *testing.T) {
		s := New()
		ran := false
		var victim *Proc
		s.Spawn("killer", func(p *Proc) {
			s.Kill(victim)
			p.Sleep(time.Second)
		})
		victim = s.SpawnAfter(time.Millisecond, "unborn", func(p *Proc) { ran = true })
		s.Run(0)
		if ran || !victim.done || victim.w != nil || s.nprocs != 0 {
			t.Fatalf("ran=%v done=%v worker=%v procs=%d", ran, victim.done, victim.w, s.nprocs)
		}
	})
}

// The hub is whichever goroutine is inside Run: a run may stop on one
// goroutine and continue on another, and a parked proc carries on where it
// was, on its own coroutine.
func TestRunFromTwoGoroutines(t *testing.T) {
	s := New()
	var wakes []Time
	gs := map[int]bool{}
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * time.Millisecond)
			wakes = append(wakes, p.Now())
			gs[goid()] = true
		}
	})
	first := make(chan int)
	go func() {
		s.Run(25 * time.Millisecond)
		first <- goid()
	}()
	if g := <-first; g == goid() {
		t.Fatal("the helper ran on the test's goroutine")
	}
	if len(wakes) != 2 {
		t.Fatalf("%d wakes in the first run, want 2", len(wakes))
	}
	if end := s.Run(0); end != Time(40*time.Millisecond) || len(wakes) != 4 || s.nprocs != 0 {
		t.Fatalf("second run ended at %v with wakes %v, %d procs", end, wakes, s.nprocs)
	}
	if len(gs) != 1 || gs[goid()] {
		t.Fatalf("proc ran on goroutines %v (test is %d), want one of its own", gs, goid())
	}
}
