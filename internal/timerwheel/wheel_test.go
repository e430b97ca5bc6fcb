package timerwheel

import (
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

// TestBenchmarksRun runs each of the package's benchmarks once, as
// `go test -bench . -benchtime=1x` does, so a benchmark that fails fails
// tier-1 too.
func TestBenchmarksRun(t *testing.T) {
	bt := flag.Lookup("test.benchtime").Value
	defer bt.Set(bt.String())
	if err := bt.Set("1x"); err != nil {
		t.Fatal(err)
	}
	for _, bench := range []func(*testing.B){BenchmarkSetCancel, BenchmarkAdvanceIdle, BenchmarkSetCancelLoaded} {
		// A failed sub-benchmark fails its parent but leaves N at 1.
		failed := false
		r := testing.Benchmark(func(b *testing.B) { bench(b); failed = b.Failed() })
		if failed || r.N != 1 {
			t.Errorf("%s failed", runtime.FuncForPC(reflect.ValueOf(bench).Pointer()).Name())
		}
	}
}

func TestFireAtDeadline(t *testing.T) {
	w := New(3, 16)
	var firedAt uint64
	var tm Timer
	w.Set(&tm, 5, func() { firedAt = w.Now() })
	w.Advance(10)
	if firedAt != 5 {
		t.Fatalf("fired at tick %d, want 5", firedAt)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestZeroDelayFiresNextTick(t *testing.T) {
	w := New(2, 8)
	fired := false
	var tm Timer
	w.Set(&tm, 0, func() { fired = true })
	w.Advance(1)
	if !fired {
		t.Fatal("zero-delay timer did not fire on next tick")
	}
}

func TestCancel(t *testing.T) {
	w := New(3, 16)
	fired := false
	var tm Timer
	w.Set(&tm, 5, func() { fired = true })
	if !w.Cancel(&tm) {
		t.Fatal("cancel of armed timer returned false")
	}
	if w.Cancel(&tm) {
		t.Fatal("cancel of disarmed timer returned true")
	}
	w.Advance(20)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if w.Armed() != 0 {
		t.Fatalf("armed = %d, want 0", w.Armed())
	}
}

func TestReschedule(t *testing.T) {
	w := New(3, 16)
	var firedAt []uint64
	var tm Timer
	w.Set(&tm, 3, func() { firedAt = append(firedAt, w.Now()) })
	w.Set(&tm, 9, func() { firedAt = append(firedAt, w.Now()) })
	w.Advance(20)
	if len(firedAt) != 1 || firedAt[0] != 9 {
		t.Fatalf("firedAt = %v, want [9]", firedAt)
	}
}

func TestCascadeAcrossLevels(t *testing.T) {
	w := New(3, 8) // level 0 spans 8 ticks, level 1 spans 64, level 2 spans 512
	deadlines := []uint64{1, 7, 8, 9, 63, 64, 65, 100, 511}
	var fired []uint64
	timers := make([]Timer, len(deadlines))
	for i, d := range deadlines {
		w.Set(&timers[i], d, func() { fired = append(fired, w.Now()) })
	}
	w.Advance(512)
	if len(fired) != len(deadlines) {
		t.Fatalf("fired %d timers, want %d (fired=%v)", len(fired), len(deadlines), fired)
	}
	want := append([]uint64(nil), deadlines...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", fired, want)
		}
	}
}

func TestRepeatedReuse(t *testing.T) {
	w := New(3, 16)
	var tm Timer
	count := 0
	var rearm func()
	rearm = func() {
		count++
		if count < 5 {
			w.Set(&tm, 2, rearm)
		}
	}
	w.Set(&tm, 2, rearm)
	w.Advance(100)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestClampBeyondRange(t *testing.T) {
	w := New(2, 8) // max span 64
	fired := false
	var tm Timer
	w.Set(&tm, 1000, func() { fired = true })
	w.Advance(64)
	if !fired {
		t.Fatal("out-of-range timer should clamp to max span and fire")
	}
}

// Property: timers with arbitrary delays fire exactly once, at or after
// their deadline tick, and in nondecreasing deadline order.
func TestFireOrderProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := New(4, 16)
		count := int(n%50) + 1
		type rec struct{ deadline, firedAt uint64 }
		recs := make([]rec, count)
		timers := make([]Timer, count)
		var order []int
		for i := 0; i < count; i++ {
			d := uint64(rng.Intn(4000)) + 1
			recs[i].deadline = d
			i := i
			w.Set(&timers[i], d, func() {
				recs[i].firedAt = w.Now()
				order = append(order, i)
			})
		}
		w.Advance(5000)
		if len(order) != count {
			return false
		}
		prev := uint64(0)
		for _, i := range order {
			if recs[i].firedAt != recs[i].deadline {
				return false
			}
			if recs[i].deadline < prev {
				return false
			}
			prev = recs[i].deadline
		}
		return w.Armed() == 0
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset means exactly the uncancelled ones
// fire.
func TestCancelSubsetProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := New(3, 16)
		const count = 30
		timers := make([]Timer, count)
		fired := make([]bool, count)
		for i := 0; i < count; i++ {
			i := i
			w.Set(&timers[i], uint64(rng.Intn(500))+1, func() { fired[i] = true })
		}
		cancelled := make([]bool, count)
		for i := 0; i < count; i++ {
			if rng.Intn(2) == 0 {
				cancelled[i] = w.Cancel(&timers[i])
				if !cancelled[i] {
					return false // all were armed
				}
			}
		}
		w.Advance(600)
		for i := 0; i < count; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLevelBoundaryRollover pins the cascade edge where a deadline sits
// exactly on a higher-level span boundary: the timer lives in level 1+, is
// redistributed by the cascade on the tick its low digit rolls to zero, and
// must still fire on that very tick (cascade runs before level-0 firing).
func TestLevelBoundaryRollover(t *testing.T) {
	w := New(3, 8) // spans: 8, 64, 512
	var fired []uint64
	note := func() { fired = append(fired, w.Now()) }
	// Arm from a mid-wheel position, not tick 0, so deadline digits and
	// delay digits disagree.
	w.Advance(56)
	var onBoundary, pastBoundary, l2Boundary Timer
	w.Set(&onBoundary, 8, note)   // deadline 64: level-1 slot that cascades at 64
	w.Set(&pastBoundary, 9, note) // deadline 65: same cascade, fires one tick later
	w.Set(&l2Boundary, 456, note) // deadline 512: level-2 boundary
	w.Advance(456)
	want := []uint64{64, 65, 512}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	if w.Armed() != 0 {
		t.Fatalf("armed = %d after all deadlines", w.Armed())
	}
}

// TestCancelDuringCascade: a timer fired on tick T cancels a second timer
// that the same tick's cascade just redistributed into the level-0 slot.
// The cancelled timer must not fire even though it was already unlinked and
// re-placed by the cascade machinery moments earlier.
func TestCancelDuringCascade(t *testing.T) {
	w := New(3, 8)
	var victim Timer
	victimFired := false
	var killer Timer
	// Both share deadline 64, so both sit in the level-1 slot the tick-64
	// cascade drains; insertion order puts killer first in the fire order.
	w.Set(&killer, 64, func() {
		if !w.Cancel(&victim) {
			t.Error("victim was not armed when killer fired")
		}
	})
	w.Set(&victim, 64, func() { victimFired = true })
	w.Advance(100)
	if victimFired {
		t.Fatal("timer cancelled during its own cascade tick still fired")
	}
	if w.Armed() != 0 {
		t.Fatalf("armed = %d, want 0", w.Armed())
	}
}

// TestRearmFromExpiryAcrossLevels: an expiry callback re-arms its own timer
// with a delay that lands in a higher level. Each generation must fire at
// the exact re-armed deadline, exercising fire -> place(level>0) ->
// cascade -> fire chains.
func TestRearmFromExpiryAcrossLevels(t *testing.T) {
	w := New(3, 8)
	var tm Timer
	var fired []uint64
	delays := []uint64{100, 7, 64, 3} // level 2, 0, 1, 0
	i := 0
	var rearm func()
	rearm = func() {
		fired = append(fired, w.Now())
		if i < len(delays) {
			d := delays[i]
			i++
			w.Set(&tm, d, rearm)
		}
	}
	w.Set(&tm, 5, rearm)
	w.Advance(300)
	want := []uint64{5, 105, 112, 176, 179}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for j := range want {
		if fired[j] != want[j] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

// TestZeroDelayChain: Set(delay=0) clamps to the next tick, including when
// re-armed from inside the expiry callback — a self-rearming zero-delay
// timer advances exactly one tick per generation and can never fire twice
// within one tick (which would loop forever in a tick-driven shell).
func TestZeroDelayChain(t *testing.T) {
	w := New(2, 8)
	var tm Timer
	var fired []uint64
	var rearm func()
	rearm = func() {
		fired = append(fired, w.Now())
		if len(fired) < 5 {
			w.Set(&tm, 0, rearm)
		}
	}
	w.Set(&tm, 0, rearm)
	if got := w.Advance(3); got != 3 {
		t.Fatalf("Advance(3) fired %d, want 3 (one per tick)", got)
	}
	w.Advance(10)
	want := []uint64{1, 2, 3, 4, 5}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for j := range want {
		if fired[j] != want[j] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

// TestZeroDelayAtBoundary arms zero-delay timers when now sits one tick
// before a cascade boundary, so the "next tick" is itself a rollover tick.
func TestZeroDelayAtBoundary(t *testing.T) {
	w := New(3, 8)
	w.Advance(63)
	var tm Timer
	var firedAt uint64
	w.Set(&tm, 0, func() { firedAt = w.Now() })
	w.Advance(1)
	if firedAt != 64 {
		t.Fatalf("zero-delay timer armed at 63 fired at %d, want 64", firedAt)
	}
}

func BenchmarkSetCancel(b *testing.B) {
	w := New(4, 256)
	var tm Timer
	for i := 0; i < b.N; i++ {
		w.Set(&tm, uint64(i%1000)+1, func() {})
		w.Cancel(&tm)
	}
}

func BenchmarkAdvanceIdle(b *testing.B) {
	w := New(4, 256)
	var tm Timer
	w.Set(&tm, 1<<30, func() {})
	b.ResetTimer()
	w.Advance(uint64(b.N))
}

// BenchmarkSetCancelLoaded measures arm/cancel with n other timers armed:
// the O(1) property the TCP shells rely on at 10k–100k connections.
func BenchmarkSetCancelLoaded(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := New(2, 256)
			load := make([]Timer, n)
			for i := range load {
				w.Set(&load[i], uint64(i%60000)+1, func() {})
			}
			var tm Timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Set(&tm, uint64(i%1000)+1, func() {})
				w.Cancel(&tm)
			}
		})
	}
}

// TestMoveKeepsPlace: a moved timer fires at the deadline of the one it
// replaced, in that one's turn among the timers due on the same tick, on
// either level, and the wheel counts it once.
func TestMoveKeepsPlace(t *testing.T) {
	for _, delay := range []uint64{5, 40} { // level 0, and level 1 of a 2×16 wheel
		w := New(2, 16)
		var order []string
		var a, b, c, moved Timer
		w.Set(&a, delay, func() { order = append(order, "a") })
		w.Set(&b, delay, func() { order = append(order, "b") })
		w.Set(&c, delay, func() { order = append(order, "c") })
		w.Advance(2)
		w.Move(&b, &moved, func() { order = append(order, "moved") })
		if b.Armed() || !moved.Armed() || w.Armed() != 3 {
			t.Fatalf("delay %d: after Move b armed %v, moved armed %v, wheel holds %d", delay, b.Armed(), moved.Armed(), w.Armed())
		}
		var spare Timer
		w.Move(&b, &spare, func() { t.Error("an unarmed timer's Move armed its target") })
		if w.Advance(delay-3) != 0 {
			t.Fatalf("delay %d: fired before the deadline", delay)
		}
		if w.Advance(1) != 3 || fmt.Sprint(order) != "[a moved c]" {
			t.Fatalf("delay %d: fired %v at tick %d, want [a moved c] at %d", delay, order, w.Now(), delay)
		}
	}
}
