package sim

import (
	"testing"
	"time"
)

// A proc killed while parked never runs again; cleanup-free teardown.
func TestKillWhileParked(t *testing.T) {
	s := New()
	resumed := false
	var victim *Proc
	victim = s.Spawn("victim", func(p *Proc) {
		p.Sleep(time.Second)
		resumed = true
	})
	s.After(time.Millisecond, func() { s.Kill(victim) })
	s.Run(0)
	if resumed {
		t.Fatal("killed proc resumed past its park point")
	}
	if !victim.killed || !victim.done {
		t.Fatalf("victim killed=%v done=%v, want true/true", victim.killed, victim.done)
	}
	if s.nprocs != 0 {
		t.Fatalf("procs remaining = %d, want 0", s.nprocs)
	}
}

// A proc that kills itself dies at its next blocking point, not immediately.
func TestSelfKill(t *testing.T) {
	s := New()
	var reachedPark, past bool
	var self *Proc
	self = s.Spawn("self", func(p *Proc) {
		s.Kill(p)
		reachedPark = true
		p.Sleep(time.Nanosecond) // first park after the kill: dies here
		past = true
	})
	s.Run(0)
	if !reachedPark {
		t.Fatal("self-kill should not take effect before the next park")
	}
	if past {
		t.Fatal("self-killed proc survived its park")
	}
	if !self.done {
		t.Fatal("self-killed proc not marked done")
	}
}

// A semaphore V whose front waiter was killed must wake the next live
// waiter, not lose the signal.
func TestSemaphoreSkipsKilledWaiter(t *testing.T) {
	s := New()
	sem := s.NewSemaphore("sem", 0)
	var deadWoke, liveWoke bool
	dead := s.Spawn("dead", func(p *Proc) {
		sem.P(p)
		deadWoke = true
	})
	s.SpawnAfter(time.Microsecond, "live", func(p *Proc) {
		sem.P(p)
		liveWoke = true
	})
	s.After(time.Millisecond, func() { s.Kill(dead) })
	s.After(2*time.Millisecond, func() { sem.V() })
	s.Run(0)
	if deadWoke {
		t.Fatal("killed waiter consumed the signal")
	}
	if !liveWoke {
		t.Fatal("live waiter starved: V was lost on the killed waiter")
	}
}

// Killing a proc blocked on a queue must not wedge the engine or other
// consumers.
func TestKillQueueConsumer(t *testing.T) {
	s := New()
	q := NewQueue[int](s)
	var got []int
	victim := s.Spawn("victim", func(p *Proc) {
		for {
			q.Pop(p)
			t.Error("killed consumer received an item")
		}
	})
	s.After(time.Microsecond, func() { s.Kill(victim) })
	s.SpawnAfter(time.Millisecond, "live", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	s.After(2*time.Millisecond, func() {
		q.Push(1)
		q.Push(2)
		q.Push(3)
	})
	s.Run(0)
	if len(got) != 3 {
		t.Fatalf("live consumer got %v, want 3 items", got)
	}
}

func TestKillIdempotent(t *testing.T) {
	s := New()
	p := s.Spawn("p", func(p *Proc) { p.Sleep(time.Hour) })
	s.After(time.Millisecond, func() {
		s.Kill(p)
		s.Kill(p) // second kill is a no-op
	})
	s.Run(0)
	if s.nprocs != 0 {
		t.Fatalf("procs remaining = %d", s.nprocs)
	}
}

func TestCondWaitUntil(t *testing.T) {
	s := New()
	c := s.NewCond()

	// Signalled before the deadline: reports true at the signal time.
	var ok1 bool
	var at1 Time
	s.Spawn("w1", func(p *Proc) {
		ok1 = c.WaitUntil(p, Time(10*time.Millisecond))
		at1 = p.Now()
	})
	s.After(time.Millisecond, c.Signal)
	s.Run(0)
	if !ok1 || at1 != Time(time.Millisecond) {
		t.Fatalf("signalled wait: ok=%v at=%v, want true at 1ms", ok1, at1)
	}

	// No signal: times out exactly at the deadline.
	var ok2 bool
	var at2 Time
	s.Spawn("w2", func(p *Proc) {
		ok2 = c.WaitUntil(p, s.Now().Add(5*time.Millisecond))
		at2 = p.Now()
	})
	s.Run(0)
	if ok2 {
		t.Fatal("wait with no signal should time out")
	}
	if at2 != Time(6*time.Millisecond) {
		t.Fatalf("timed out at %v, want 6ms", at2)
	}
	if c.Waiters() != 0 {
		t.Fatalf("waiters = %d after timeout, want 0", c.Waiters())
	}
}

func TestQueuePopTimeout(t *testing.T) {
	s := New()
	q := NewQueue[string](s)
	var v string
	var ok, ok2 bool
	s.Spawn("c", func(p *Proc) {
		v, ok = q.PopTimeout(p, 10*time.Millisecond)
		_, ok2 = q.PopTimeout(p, 10*time.Millisecond)
	})
	s.After(time.Millisecond, func() { q.Push("hello") })
	s.Run(0)
	if !ok || v != "hello" {
		t.Fatalf("PopTimeout = %q, %v; want hello, true", v, ok)
	}
	if ok2 {
		t.Fatal("empty PopTimeout should report false")
	}
	if s.Now() != Time(11*time.Millisecond) {
		t.Fatalf("final time = %v, want 11ms", s.Now())
	}
}
