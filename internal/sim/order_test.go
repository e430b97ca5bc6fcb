package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"
)

// orderLog runs a seeded mix of procs, timers, cancels, kills, semaphores,
// conds and queues, in several Run/RunUntil slices, and logs one line per
// step: virtual time, the engine's next sequence number, and who ran. Every
// random draw happens inside the simulation, so the log is a function of
// the seed and of the engine's event order alone.
func orderLog(seed int64) []byte {
	var log bytes.Buffer
	s := New()
	rng := rand.New(rand.NewSource(seed))
	note := func(who string, a ...any) {
		fmt.Fprintf(&log, "%d %d %s\n", int64(s.now), s.seq, fmt.Sprintf(who, a...))
	}
	dur := func(max int) Dur { return Dur(rng.Intn(max)) * time.Microsecond }

	sem := s.NewSemaphore("sem", 1)
	cond := s.NewCond()
	q := NewQueue[int](s)
	cpu := s.NewResource("cpu")
	var procs []*Proc
	var timers []Timer
	marks := 0

	var body func(id, steps int) func(p *Proc)
	spawn := func(d Dur, steps int) {
		id := len(procs)
		procs = append(procs, s.SpawnAfter(d, fmt.Sprintf("p%d", id), body(id, steps)))
	}
	tick := func(id int) func() {
		return func() {
			switch k := rng.Intn(6); k {
			case 0:
				sem.V()
			case 1:
				q.Push(id)
			case 2:
				cond.Signal()
			case 3:
				cond.Broadcast()
			case 4:
				spawn(dur(30), 3)
			case 5:
				if rng.Intn(3) == 0 {
					s.Kill(procs[rng.Intn(len(procs))])
				}
			}
			marks++
			note("t%d", id)
		}
	}
	body = func(id, steps int) func(p *Proc) {
		return func(p *Proc) {
			note("p%d start", id)
			for k := 0; k < steps; k++ {
				op := rng.Intn(14)
				switch op {
				case 0:
					p.Sleep(dur(50))
				case 1:
					p.Yield()
				case 2:
					sem.P(p)
				case 3:
					sem.V()
				case 4:
					q.Push(id)
				case 5:
					v := q.Pop(p)
					note("p%d popped %d", id, v)
				case 6:
					v, ok := q.PopTimeout(p, dur(40))
					note("p%d poptimeout %d %v", id, v, ok)
				case 7:
					ok := cond.WaitUntil(p, s.now.Add(dur(40)))
					note("p%d waituntil %v", id, ok)
				case 8:
					cpu.Use(p, dur(20))
				case 9:
					timers = append(timers, s.After(dur(200), tick(len(timers))))
				case 10:
					if len(timers) > 0 {
						ok := timers[rng.Intn(len(timers))].Cancel()
						note("p%d cancel %v", id, ok)
					}
				case 11:
					spawn(dur(30), 4)
				case 12:
					if rng.Intn(4) == 0 {
						s.Kill(procs[rng.Intn(len(procs))])
					}
				case 13:
					cpu.UseAsync(dur(10), tick(1000+id))
				}
				marks++
				note("p%d op%d", id, op)
			}
			note("p%d end", id)
		}
	}

	for i := 0; i < 12; i++ {
		spawn(dur(20), 60)
	}
	// Timers set from outside any proc keep the blocked ones moving.
	for i := 0; i < 200; i++ {
		timers = append(timers, s.After(dur(3000), tick(len(timers))))
	}
	for slice := 0; len(s.heap) > 0 && slice < 200; slice++ {
		switch slice % 3 {
		case 0:
			s.Run(100 * time.Microsecond)
		case 1:
			target := marks + 25
			s.RunUntil(0, func() bool { return marks >= target })
		case 2:
			s.After(dur(60), s.Stop)
			s.Run(0)
		}
		note("slice %d: procs %d pending %d fired %d", slice, s.nprocs, len(s.heap), s.fired)
	}
	return log.Bytes()
}

// TestOrderMatchesRecordedEngine compares the engine's event order with a
// log of this same scenario recorded from the engine-goroutine scheduler the
// package had before direct hand-off (commit 9884fe2): time, sequence-number
// consumption and interleaving must be identical, step for step. The
// recording cannot be regenerated from this engine and still mean that, so
// there is no update flag; a changed scenario needs that commit's sim.
func TestOrderMatchesRecordedEngine(t *testing.T) {
	const golden = "testdata/order.golden"
	var got bytes.Buffer
	for seed := int64(1); seed <= 4; seed++ {
		fmt.Fprintf(&got, "seed %d\n", seed)
		got.Write(orderLog(seed))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("order diverges at line %d: got %q, recorded %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("order log has %d lines, recorded %d", len(gl), len(wl))
}
