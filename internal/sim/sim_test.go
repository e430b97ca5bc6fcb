package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.After(30*time.Nanosecond, func() { got = append(got, 3) })
	s.After(10*time.Nanosecond, func() { got = append(got, 1) })
	s.After(20*time.Nanosecond, func() { got = append(got, 2) })
	s.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != Time(30) {
		t.Fatalf("final time = %v, want 30ns", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*time.Nanosecond, func() { got = append(got, i) })
	}
	s.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(0, func() {})
	})
	s.Run(0)
}

func TestTimerCancel(t *testing.T) {
	s := New()
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("first cancel should report true")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should report false")
	}
	s.Run(0)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunLimit(t *testing.T) {
	s := New()
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := time.Duration(i) * time.Millisecond
		s.After(d, func() { fired = append(fired, s.Now()) })
	}
	s.Run(3 * time.Millisecond) // events at 1,2,3ms fire; 4,5 remain
	if len(fired) != 3 {
		t.Fatalf("fired %d events within limit, want 3", len(fired))
	}
	s.Run(0)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestProcSleep(t *testing.T) {
	s := New()
	var wake Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Microsecond)
		wake = p.Now()
	})
	s.Run(0)
	if wake != Time(42*time.Microsecond) {
		t.Fatalf("woke at %v, want 42µs", wake)
	}
	if s.nprocs != 0 {
		t.Fatalf("procs remaining = %d, want 0", s.nprocs)
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New()
	var trace []string
	mk := func(name string, period time.Duration, n int) {
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(period)
				trace = append(trace, fmt.Sprintf("%s@%v", name, p.Now()))
			}
		})
	}
	mk("a", 10*time.Nanosecond, 3)
	mk("b", 15*time.Nanosecond, 2)
	s.Run(0)
	// At t=30ns both procs wake; b's wakeup was scheduled earlier (at 15ns,
	// vs a's at 20ns), so FIFO tie-breaking runs b first.
	want := []string{"a@10ns", "b@15ns", "a@20ns", "b@30ns", "a@30ns"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSemaphoreBlocking(t *testing.T) {
	s := New()
	sem := s.NewSemaphore("sem", 0)
	var order []string
	s.Spawn("waiter", func(p *Proc) {
		order = append(order, "wait-start")
		sem.P(p)
		order = append(order, fmt.Sprintf("wait-done@%v", p.Now()))
	})
	s.Spawn("signaler", func(p *Proc) {
		p.Sleep(time.Millisecond)
		sem.V()
	})
	s.Run(0)
	if len(order) != 2 || order[1] != "wait-done@1ms" {
		t.Fatalf("order = %v", order)
	}
}

func TestSemaphoreCountingAndFIFO(t *testing.T) {
	s := New()
	sem := s.NewSemaphore("sem", 2)
	var got []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		s.Spawn(name, func(p *Proc) {
			sem.P(p)
			got = append(got, name)
		})
	}
	s.Spawn("v", func(p *Proc) {
		p.Sleep(time.Millisecond)
		sem.V()
		sem.V()
	})
	s.Run(0)
	want := []string{"w0", "w1", "w2", "w3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wakeup order = %v, want %v", got, want)
		}
	}
}

func TestSemaphoreTryP(t *testing.T) {
	s := New()
	sem := s.NewSemaphore("sem", 1)
	if !sem.TryP() {
		t.Fatal("TryP should succeed with count 1")
	}
	if sem.TryP() {
		t.Fatal("TryP should fail with count 0")
	}
	sem.V()
	if sem.count != 1 {
		t.Fatalf("count = %d, want 1", sem.count)
	}
}

func TestCondBroadcast(t *testing.T) {
	s := New()
	c := s.NewCond()
	woken := 0
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	s.Spawn("b", func(p *Proc) {
		p.Sleep(time.Microsecond)
		if c.Waiters() != 3 {
			t.Errorf("waiters = %d, want 3", c.Waiters())
		}
		c.Broadcast()
	})
	s.Run(0)
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestQueueFIFO(t *testing.T) {
	s := New()
	q := NewQueue[int](s)
	var got []int
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Pop(p))
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Microsecond)
			q.Push(i)
		}
	})
	s.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("queue order = %v", got)
		}
	}
}

func TestQueueTryPop(t *testing.T) {
	s := New()
	q := NewQueue[string](s)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue should fail")
	}
	q.Push("x")
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
	v, ok := q.TryPop()
	if !ok || v != "x" {
		t.Fatalf("TryPop = %q, %v", v, ok)
	}
}

func TestResourceQueueing(t *testing.T) {
	s := New()
	cpu := s.NewResource("cpu")
	var done []Time
	for i := 0; i < 3; i++ {
		s.Spawn("worker", func(p *Proc) {
			cpu.Use(p, 10*time.Microsecond)
			done = append(done, p.Now())
		})
	}
	s.Run(0)
	want := []Time{Time(10 * time.Microsecond), Time(20 * time.Microsecond), Time(30 * time.Microsecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion times = %v, want %v", done, want)
		}
	}
	if cpu.Busy() != 30*time.Microsecond {
		t.Fatalf("busy = %v, want 30µs", cpu.Busy())
	}
}

func TestResourceUseAsync(t *testing.T) {
	s := New()
	cpu := s.NewResource("cpu")
	var at Time
	cpu.UseAsync(5*time.Microsecond, nil)
	cpu.UseAsync(5*time.Microsecond, func() { at = s.Now() })
	s.Run(0)
	if at != Time(10*time.Microsecond) {
		t.Fatalf("async completion at %v, want 10µs", at)
	}
}

func TestResourceMixedProcAndAsync(t *testing.T) {
	s := New()
	cpu := s.NewResource("cpu")
	var procDone Time
	s.Spawn("w", func(p *Proc) {
		p.Sleep(time.Microsecond)
		cpu.Use(p, 10*time.Microsecond)
		procDone = p.Now()
	})
	// Interrupt work issued at t=0 reserves the CPU first.
	cpu.UseAsync(20*time.Microsecond, nil)
	s.Run(0)
	if procDone != Time(30*time.Microsecond) {
		t.Fatalf("proc finished at %v, want 30µs (queued behind interrupt)", procDone)
	}
}

// runScenario executes a randomized but seeded mix of procs, semaphores and
// timers and returns the execution trace; used to verify determinism.
func runScenario(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	var trace []string
	sem := s.NewSemaphore("s", 0)
	q := NewQueue[int](s)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("p%d", i)
		delay := time.Duration(rng.Intn(1000)) * time.Nanosecond
		switch rng.Intn(3) {
		case 0:
			s.SpawnAfter(delay, name, func(p *Proc) {
				p.Sleep(time.Duration(rng.Intn(100)) * time.Nanosecond)
				sem.V()
				trace = append(trace, name+"-v@"+p.Now().String())
			})
		case 1:
			s.SpawnAfter(delay, name, func(p *Proc) {
				sem.P(p)
				trace = append(trace, name+"-p@"+p.Now().String())
				q.Push(i)
			})
		case 2:
			s.SpawnAfter(delay, name, func(p *Proc) {
				p.Sleep(delay)
				trace = append(trace, name+"-t@"+p.Now().String())
				sem.V()
			})
		}
	}
	s.Run(time.Second)
	return trace
}

func TestDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := runScenario(seed)
		b := runScenario(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at %d: %q vs %q", seed, i, a[i], b[i])
			}
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	if err := quick.Check(func(base int32, d int32) bool {
		tm := Time(base)
		dd := Dur(d)
		return tm.Add(dd).Sub(tm) == dd
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: N events scheduled at arbitrary non-negative offsets always fire
// in nondecreasing time order.
func TestEventOrderProperty(t *testing.T) {
	if err := quick.Check(func(offsets []uint16) bool {
		s := New()
		var fired []Time
		for _, o := range offsets {
			s.After(time.Duration(o)*time.Nanosecond, func() { fired = append(fired, s.Now()) })
		}
		s.Run(0)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStop(t *testing.T) {
	s := New()
	n := 0
	s.After(time.Millisecond, func() { n++; s.Stop() })
	s.After(2*time.Millisecond, func() { n++ })
	s.Run(0)
	if n != 1 {
		t.Fatalf("events run = %d, want 1 (Stop should halt)", n)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	n := 0
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i+1)*time.Millisecond, func() { n++ })
	}
	s.RunUntil(0, func() bool { return n >= 4 })
	if n != 4 {
		t.Fatalf("n = %d, want 4", n)
	}
}

func BenchmarkEventDispatch(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.After(time.Nanosecond, func() {})
	}
	b.ResetTimer()
	s.Run(0)
}

// BenchmarkProcSwitch is the self-resume path: the parked proc pops its own
// resume and returns, with no switch.
func BenchmarkProcSwitch(b *testing.B) {
	s := New()
	s.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ResetTimer()
	s.Run(0)
}

// BenchmarkHandoff is the cross-proc path: two procs alternate through a
// pair of semaphores, so every park ends on the other proc — a yield to the
// hub and a switch into the other worker. One iteration is two hand-offs.
func BenchmarkHandoff(b *testing.B) {
	s := New()
	s1 := s.NewSemaphore("a", 0)
	s2 := s.NewSemaphore("b", 0)
	s.Spawn("p1", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s1.V()
			s2.P(p)
		}
	})
	s.Spawn("p2", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s1.P(p)
			s2.V()
		}
	})
	b.ResetTimer()
	s.Run(0)
}
