package sim

import (
	"testing"
	"time"
)

// The ring against a plain slice, through growth, wrap-around and removal
// from the middle.
func TestRingMatchesSlice(t *testing.T) {
	var r ring[int]
	var ref []int
	check := func(when string) {
		t.Helper()
		if r.len() != len(ref) {
			t.Fatalf("%s: len %d, want %d", when, r.len(), len(ref))
		}
		for i, v := range ref {
			if *r.at(i) != v {
				t.Fatalf("%s: item %d = %d, want %d", when, i, *r.at(i), v)
			}
		}
	}
	next := 0
	for round := 0; round < 40; round++ {
		for k := 0; k < round%7+1; k++ {
			r.push(next)
			ref = append(ref, next)
			next++
		}
		check("after pushes")
		if len(ref) > 2 {
			i := round % len(ref)
			r.remove(i)
			ref = append(ref[:i], ref[i+1:]...)
			check("after a removal")
		}
		for k := 0; k < round%5 && len(ref) > 0; k++ {
			if got := r.pop(); got != ref[0] {
				t.Fatalf("pop = %d, want %d", got, ref[0])
			}
			ref = ref[1:]
		}
		check("after pops")
	}
	r.reset()
	ref = nil
	check("after reset")
}

// A queue pushed and popped in turn, and a condition variable waited on and
// signalled in turn, stay on the arrays they grew at the start.
func TestQueueAndWaitersSteadyStateAllocatesNothing(t *testing.T) {
	s := New()
	q := NewQueue[[64]byte](s)
	sem := s.NewSemaphore("sem", 0)
	rounds := 0
	s.Spawn("consumer", func(p *Proc) {
		for {
			q.Pop(p)
			sem.P(p)
			rounds++
		}
	})
	step := func() {
		q.Push([64]byte{})
		sem.V()
		s.Run(0)
	}
	step()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("a push/pop and V/P round allocates %v times, want 0", allocs)
	}
	if rounds < 200 {
		t.Fatalf("consumer ran %d rounds", rounds)
	}
}

// PopTimeout allocates nothing on either path: a push that wakes the waiter
// before its deadline (which is cancelled), and a deadline that passes with
// the queue empty. The deadline is an event on the proc, not a closure.
func TestPopTimeoutAllocatesNothing(t *testing.T) {
	s := New()
	q := NewQueue[int](s)
	popped, expired := 0, 0
	s.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := q.PopTimeout(p, time.Second); ok {
				popped++
			} else {
				expired++
			}
		}
	})
	want := 0
	done := func() bool { return popped == want }
	signalled := func() {
		want++
		q.Push(want)
		s.RunUntil(0, done)
	}
	timedOut := func() { s.Run(time.Second) }
	s.Run(time.Millisecond)
	signalled()
	timedOut()
	if allocs := testing.AllocsPerRun(200, signalled); allocs != 0 {
		t.Fatalf("a signalled PopTimeout allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, timedOut); allocs != 0 {
		t.Fatalf("a timed-out PopTimeout allocates %v times, want 0", allocs)
	}
	if popped < 201 || expired < 201 {
		t.Fatalf("%d pops and %d time-outs, want each path run", popped, expired)
	}
}
