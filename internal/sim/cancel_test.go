package sim

import (
	"testing"
	"time"
)

// TestCancelRemovesEagerly verifies the satellite bugfix: a cancelled timer
// leaves the heap immediately instead of lingering as a dead event until its
// deadline pops it.
func TestCancelRemovesEagerly(t *testing.T) {
	s := New()
	tm := s.After(time.Hour, func() { t.Fatal("cancelled event fired") })
	if len(s.heap) != 1 {
		t.Fatalf("pending = %d, want 1", len(s.heap))
	}
	if !tm.Cancel() {
		t.Fatal("Cancel reported not pending")
	}
	if len(s.heap) != 0 {
		t.Fatalf("pending after cancel = %d, want 0 (dead event leaked)", len(s.heap))
	}
	if tm.Cancel() {
		t.Fatal("second Cancel reported pending")
	}
	if tm.Pending() {
		t.Fatal("cancelled timer still Pending")
	}
}

// TestRearmCancelLoopBounded runs the TCP retransmit pattern — a long-lived
// connection arming and cancelling its retransmission timer on every
// segment — and asserts the heap stays bounded instead of accumulating one
// dead event per cancelled arm.
func TestRearmCancelLoopBounded(t *testing.T) {
	s := New()
	const rearms = 100_000
	var tm Timer
	for i := 0; i < rearms; i++ {
		tm.Cancel()
		tm = s.After(3*time.Second, func() {})
		if n := len(s.heap); n > 2 {
			t.Fatalf("heap grew to %d events after %d re-arms; cancel is leaking", n, i)
		}
	}
	tm.Cancel()
	if n := len(s.heap); n != 0 {
		t.Fatalf("heap holds %d events after final cancel, want 0", n)
	}
}

// TestCancelStaleTimer verifies a Timer kept across its event's recycling
// cannot cancel the unrelated event that reused the record.
func TestCancelStaleTimer(t *testing.T) {
	s := New()
	fired := 0
	tm := s.After(time.Millisecond, func() { fired++ })
	s.Run(0)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// The record is now recycled by a fresh event.
	s.After(time.Millisecond, func() { fired++ })
	if tm.Cancel() {
		t.Fatal("stale Timer cancelled a recycled record")
	}
	if tm.Pending() {
		t.Fatal("stale Timer reports Pending")
	}
	s.Run(0)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (stale cancel killed the new event)", fired)
	}
}

// TestCancelMiddleOfHeap removes events from arbitrary heap positions and
// checks the survivors still fire in deadline order.
func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var fired []int
	var timers []Timer
	for i := 0; i < 64; i++ {
		i := i
		d := time.Duration((i*37)%64+1) * time.Millisecond
		timers = append(timers, s.After(d, func() { fired = append(fired, i) }))
	}
	// Cancel every third event.
	cancelled := map[int]bool{}
	for i := 0; i < 64; i += 3 {
		if !timers[i].Cancel() {
			t.Fatalf("timer %d not pending", i)
		}
		cancelled[i] = true
	}
	s.Run(0)
	if len(fired) != 64-len(cancelled) {
		t.Fatalf("fired %d events, want %d", len(fired), 64-len(cancelled))
	}
	last := Time(-1)
	seen := map[int]bool{}
	for _, i := range fired {
		if cancelled[i] {
			t.Fatalf("cancelled event %d fired", i)
		}
		if seen[i] {
			t.Fatalf("event %d fired twice", i)
		}
		seen[i] = true
		at := Time(time.Duration((i*37)%64+1) * time.Millisecond)
		if at < last {
			t.Fatalf("events fired out of deadline order")
		}
		last = at
	}
}

// TestAfterArgNoClosure checks the argument-carrying scheduling form invokes
// the callback with its argument.
func TestAfterArgNoClosure(t *testing.T) {
	s := New()
	got := 0
	fn := func(a any) { got = a.(int) }
	s.AfterArg(time.Millisecond, fn, 42)
	s.Run(0)
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}
