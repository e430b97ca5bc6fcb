package ulp

// Determinism regression for the wall-clock fast path. The pooled event
// records, recycled packet buffers, compiled demux predicates, and
// word-at-a-time checksum are all wall-clock optimizations of the
// simulator itself: virtual-time behaviour must be bit-identical to the
// reference implementations, and identical from run to run. This test
// pins that invariant the strongest way available short of checked-in
// golden files — it executes a seeded chaos scenario (loss, duplication,
// corruption, reordering, and a mid-stream crash all active) twice and
// requires the two frame-level event traces to match exactly: same
// frames, same bytes, same virtual timestamps, same order.
//
// Anything order-sensitive that the optimizations touch feeds this trace:
// event-heap pops decide frame timing, buffer recycling could leak stale
// bytes into frames, and a compiled predicate that disagreed with its
// interpreter would steer packets — and therefore retransmissions — down
// a different path.

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"ulp/internal/chaos"
	"ulp/internal/kern"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/trace"
	"ulp/internal/wire"
)

// runSeededScenario executes one full client-server transfer under an
// aggressive fault plan and returns the frame trace: one line per frame on
// the wire with its virtual timestamp, length, and payload hash. With
// withTrace set the full observability bus is enabled with a subscriber
// attached, so every emission hook executes during the run — the returned
// trace must be identical either way.
func runSeededScenario(t *testing.T, seed uint64, withTrace bool) []string {
	t.Helper()
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Chaos: &chaos.FaultPlan{
			Crashes: []chaos.CrashPoint{{Host: 1, App: "client", At: 400 * time.Millisecond}},
		},
		Conditions: &wire.LinkConditions{
			Seed:         seed,
			LossProb:     0.05,
			DupProb:      0.03,
			CorruptProb:  0.02,
			ReorderProb:  0.05,
			ReorderDelay: 2 * time.Millisecond,
		},
	})
	if withTrace {
		w.EnableTrace().Subscribe(func(trace.Event) {})
		// Traced runs also stream through the RFC 793 conformance checker:
		// the chaos schedule must never push an engine through an illegal
		// transition, and the checker must not perturb the trace.
		enableConformance(t, w)
	}
	var frames []string
	w.TraceFrames(func(at time.Duration, frame *pkt.Buf) {
		h := fnv.New64a()
		h.Write(frame.Bytes())
		frames = append(frames, fmt.Sprintf("%d %d %016x", at, len(frame.Bytes()), h.Sum64()))
	})

	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	srvDone := false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(th, buf)
			if err != nil || n == 0 {
				break
			}
		}
		srvDone = true
		l.Close(th)
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			return
		}
		// Stream until the crash point tears the domain down mid-transfer.
		for {
			if _, err := c.Write(th, pattern(1024)); err != nil {
				return
			}
			th.Sleep(5 * time.Millisecond)
		}
	})
	w.RunUntil(time.Minute, func() bool { return srvDone })
	// Drain the crash teardown so the trace covers resets too.
	w.Run(5 * time.Second)
	if len(frames) == 0 {
		t.Fatal("scenario produced no frames — trace hook not firing")
	}
	return frames
}

// TestDeterministicReplay runs the same seeded chaos scenario twice and
// diffs the frame traces. The suite's tables depend on this property; the
// trace-level check localizes a violation to the first diverging frame.
func TestDeterministicReplay(t *testing.T) {
	seeds := []uint64{7, 42}
	if testing.Short() {
		seeds = seeds[:1] // CI's quick determinism gate
	}
	for _, seed := range seeds {
		a := runSeededScenario(t, seed, false)
		b := runSeededScenario(t, seed, false)
		diffTraces(t, seed, a, b)
	}
}

// TestTracingPreservesDeterminism pins the observability layer's core
// invariant: enabling the trace bus (with a live subscriber, so every
// emission hook actually runs) must not consume virtual time, sequence
// numbers, or randomness. A traced run's frame trace must be bit-identical
// to an untraced run of the same seed.
func TestTracingPreservesDeterminism(t *testing.T) {
	seed := uint64(7)
	plain := runSeededScenario(t, seed, false)
	traced := runSeededScenario(t, seed, true)
	diffTraces(t, seed, plain, traced)
}

func diffTraces(t *testing.T, seed uint64, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("seed %d: trace lengths differ: %d vs %d frames", seed, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d: traces diverge at frame %d:\n  run 1: %s\n  run 2: %s",
				seed, i, a[i], b[i])
		}
	}
}

// runRegistryCrashScenario is the crash-recovery member of the replay
// matrix: wire faults plus a kill-and-restart of the server's registry
// mid-transfer. Rebuild order (sorted module enumeration), lease renewals,
// and the reborn server's perturbed ISS all feed the frame trace, so any
// nondeterminism in the recovery path shows up as a diverging frame.
func runRegistryCrashScenario(t *testing.T, seed uint64) []string {
	t.Helper()
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Conditions: &wire.LinkConditions{Seed: seed, LossProb: 0.03, DupProb: 0.02},
		Chaos: &chaos.FaultPlan{
			ShardCrashes: []chaos.ShardCrash{
				{Host: 0, At: 150 * time.Millisecond, RestartAfter: 200 * time.Millisecond},
			},
		},
	})
	var frames []string
	w.TraceFrames(func(at time.Duration, frame *pkt.Buf) {
		h := fnv.New64a()
		h.Write(frame.Bytes())
		frames = append(frames, fmt.Sprintf("%d %d %016x", at, len(frame.Bytes()), h.Sum64()))
	})

	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	srvDone := false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(th, buf)
			if err != nil || n == 0 {
				break
			}
		}
		srvDone = true
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			return
		}
		// Slow writes straddle the crash window, then an orderly close.
		for i := 0; i < 60; i++ {
			if _, err := c.Write(th, pattern(512)); err != nil {
				return
			}
			th.Sleep(5 * time.Millisecond)
		}
		c.Close(th)
	})
	w.RunUntil(time.Minute, func() bool { return srvDone })
	w.Run(2 * time.Second) // drain the close and any recovery stragglers
	if !srvDone {
		t.Fatal("crash-recovery scenario did not complete")
	}
	if epoch := Counter(t, w, "registry.h0.shard0.epoch"); epoch != 2 {
		t.Fatalf("epoch = %d, want 2", epoch)
	}
	if len(frames) == 0 {
		t.Fatal("scenario produced no frames")
	}
	return frames
}

// TestRegistryCrashReplayDeterministic pins the acceptance criterion for
// the recovery path: the same seeded kill-and-restart scenario must be
// bit-identical across two replays.
func TestRegistryCrashReplayDeterministic(t *testing.T) {
	seed := uint64(17)
	a := runRegistryCrashScenario(t, seed)
	b := runRegistryCrashScenario(t, seed)
	diffTraces(t, seed, a, b)
}

// runZeroCopyScenario is the zero-copy member of the replay matrix: the
// same aggressive fault plan as runSeededScenario but with by-reference
// delivery and batched doorbells on. Lien settlement, refcounted flood
// clones, and the descriptor-post cost all feed frame timing here, so any
// nondeterminism in the zero-copy machinery diverges the trace.
func runZeroCopyScenario(t *testing.T, seed uint64) []string {
	t.Helper()
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		ZeroCopyRx: true,
		Chaos: &chaos.FaultPlan{
			Crashes: []chaos.CrashPoint{{Host: 1, App: "client", At: 400 * time.Millisecond}},
		},
		Conditions: &wire.LinkConditions{
			Seed:         seed,
			LossProb:     0.05,
			DupProb:      0.03,
			CorruptProb:  0.02,
			ReorderProb:  0.05,
			ReorderDelay: 2 * time.Millisecond,
		},
	})
	var frames []string
	w.TraceFrames(func(at time.Duration, frame *pkt.Buf) {
		h := fnv.New64a()
		h.Write(frame.Bytes())
		frames = append(frames, fmt.Sprintf("%d %d %016x", at, len(frame.Bytes()), h.Sum64()))
	})

	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	srvDone := false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(th, buf)
			if err != nil || n == 0 {
				break
			}
		}
		srvDone = true
		l.Close(th)
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			return
		}
		for {
			if _, err := c.Write(th, pattern(1024)); err != nil {
				return
			}
			th.Sleep(5 * time.Millisecond)
		}
	})
	// Like runSeededScenario, completion is not asserted: the server is a
	// pure receiver, so when the crash teardown's reset is lost to the
	// fault plan nothing re-elicits it and the read blocks — by design.
	// The property under test is bit-identical replay, not delivery.
	w.RunUntil(time.Minute, func() bool { return srvDone })
	w.Run(5 * time.Second)
	if len(frames) == 0 {
		t.Fatal("scenario produced no frames")
	}
	return frames
}

// TestZeroCopyReplayDeterministic runs the zero-copy chaos scenario twice
// and requires bit-identical frame traces — the seeded replay matrix's
// zero-copy row.
func TestZeroCopyReplayDeterministic(t *testing.T) {
	seed := uint64(7)
	a := runZeroCopyScenario(t, seed)
	b := runZeroCopyScenario(t, seed)
	diffTraces(t, seed, a, b)
}

// runShardCrashScenario is the sharded-control-plane member of the replay
// matrix: a 2-shard federation on each host, wire faults, and staggered
// kill-and-restart of both server-side shards. Each outage (8 s) outlives
// the 3 s lease TTL, so the shard that issued the server connection's lease
// dies long enough for the module to quarantine the endpoint. The server is
// the writer: its paced Write hits the quarantine (ErrLeaseExpired) and
// triggers reconnect — the library re-registers with the surviving shard
// (cross-shard migration, asserted below), and the reborn shard's
// ownership-filtered rebuild, dropForeign sweep, and listener replication
// all feed the frame trace. Any map-order or steering nondeterminism in the
// federation diverges a frame.
func runShardCrashScenario(t *testing.T, seed uint64) []string {
	t.Helper()
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		RegistryShards: 2,
		Conditions:     &wire.LinkConditions{Seed: seed, LossProb: 0.03, DupProb: 0.02},
		Chaos: &chaos.FaultPlan{
			ShardCrashes: []chaos.ShardCrash{
				{Host: 0, Shard: 0, At: 500 * time.Millisecond, RestartAfter: 8 * time.Second},
				{Host: 0, Shard: 1, At: 9 * time.Second, RestartAfter: 8 * time.Second},
			},
		},
	})
	var frames []string
	w.TraceFrames(func(at time.Duration, frame *pkt.Buf) {
		h := fnv.New64a()
		h.Write(frame.Bytes())
		frames = append(frames, fmt.Sprintf("%d %d %016x", at, len(frame.Bytes()), h.Sum64()))
	})

	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	cliDone := false
	got := 0
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			return
		}
		// Slow writes straddle both shard outages: the first crash
		// quarantines this endpoint mid-stream, and the next Write after
		// lease expiry is the migration trigger.
		for i := 0; i < 60; i++ {
			if _, err := c.Write(th, pattern(512)); err != nil {
				return
			}
			th.Sleep(200 * time.Millisecond)
		}
		c.Close(th)
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(th, buf)
			if err != nil || n == 0 {
				break
			}
			got += n
		}
		cliDone = true
	})
	// Sample the migration counter before shard 1's crash resets visibility
	// (counters are per-Server-incarnation).
	migrated := int64(0)
	srv.GoAfter(8900*time.Millisecond, "sample", func(th *kern.Thread) {
		migrated = Counter(t, w, "registry.h0.reregistered")
	})
	w.RunUntil(time.Minute, func() bool { return cliDone })
	w.Run(8 * time.Second) // ride out shard 1's restart + heartbeat
	if !cliDone || got != 60*512 {
		t.Fatalf("shard-crash scenario incomplete: done=%v got=%d want=%d", cliDone, got, 60*512)
	}
	if migrated == 0 {
		t.Fatal("lease expiry did not drive a cross-shard migration")
	}
	for i := 0; i < 2; i++ {
		pfx := fmt.Sprintf("registry.h0.shard%d.", i)
		if Counter(t, w, pfx+"live") != 1 {
			t.Fatalf("shard %d not live after restarts", i)
		}
		if epoch := Counter(t, w, pfx+"epoch"); epoch != 2 {
			t.Fatalf("shard %d epoch = %d, want 2 (crashed and reborn)", i, epoch)
		}
	}
	if len(frames) == 0 {
		t.Fatal("scenario produced no frames")
	}
	return frames
}

// TestShardCrashReplayDeterministic pins the sharded control plane into the
// replay matrix: the same seeded shard kill-and-restart scenario — lease
// expiry racing cross-shard migration included — must be bit-identical
// across two replays.
func TestShardCrashReplayDeterministic(t *testing.T) {
	seed := uint64(23)
	a := runShardCrashScenario(t, seed)
	b := runShardCrashScenario(t, seed)
	diffTraces(t, seed, a, b)
}

// runDegradationScenario is the link-conditions member of the replay
// matrix: one impairment plan runs every stage at once — i.i.d. frame
// faults, Gilbert–Elliott bursty loss, a flap schedule and a rate-limited
// bounded queue — so two probabilistic stages draw from their own
// generators, both derived from the one seed.
func runDegradationScenario(t *testing.T, seed uint64) []string {
	t.Helper()
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Conditions: &wire.LinkConditions{
			Seed:         seed,
			LossProb:     0.03,
			DupProb:      0.02,
			ReorderProb:  0.03,
			ReorderDelay: 2 * time.Millisecond,
			Burst:        &wire.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.3, LossBad: 1},
			Flaps: []wire.Window{
				{From: 80 * time.Millisecond, Until: 120 * time.Millisecond},
				{From: 300 * time.Millisecond, Until: 340 * time.Millisecond},
			},
			Queue: &wire.QueueModel{RateBitsPerSec: 8_000_000, MaxFrames: 12},
		},
	})
	var frames []string
	w.TraceFrames(func(at time.Duration, frame *pkt.Buf) {
		h := fnv.New64a()
		h.Write(frame.Bytes())
		frames = append(frames, fmt.Sprintf("%d %d %016x", at, len(frame.Bytes()), h.Sum64()))
	})

	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	srvDone := false
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{})
		c, err := l.Accept(th)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(th, buf)
			if err != nil || n == 0 {
				break
			}
		}
		srvDone = true
	})
	cli.GoAfter(time.Millisecond, "cli", func(th *kern.Thread) {
		c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
		if err != nil {
			return
		}
		for i := 0; i < 40; i++ {
			if _, err := c.Write(th, pattern(1024)); err != nil {
				return
			}
			th.Sleep(5 * time.Millisecond)
		}
		c.Close(th)
	})
	w.RunUntil(time.Minute, func() bool { return srvDone })
	w.Run(2 * time.Second)
	if !srvDone {
		t.Fatal("degradation scenario did not complete")
	}
	if len(frames) == 0 {
		t.Fatal("scenario produced no frames")
	}
	return frames
}

// TestDegradationReplayDeterministic pins the acceptance criterion for the
// impairment plan: the same seeded frame-fault + bursty-loss + flap +
// bufferbloat scenario must be bit-identical across two replays.
func TestDegradationReplayDeterministic(t *testing.T) {
	seed := uint64(23)
	a := runDegradationScenario(t, seed)
	b := runDegradationScenario(t, seed)
	diffTraces(t, seed, a, b)
}

// runCrashManyConnsScenario is the many-connection crash member of the replay
// matrix: a client application holding twelve established connections dies
// mid-stream. Its registry's crash sweep reclaims every connection, resets
// each peer and destroys each channel, so the order of that sweep decides the
// order and timestamps of the resets on the wire and which ring indices the
// next set-ups reuse.
func runCrashManyConnsScenario(t *testing.T) []string {
	t.Helper()
	const conns = 12
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Chaos: &chaos.FaultPlan{
			Crashes: []chaos.CrashPoint{{Host: 1, App: "client", At: 300 * time.Millisecond}},
		},
	})
	var frames []string
	w.TraceFrames(func(at time.Duration, frame *pkt.Buf) {
		h := fnv.New64a()
		h.Write(frame.Bytes())
		frames = append(frames, fmt.Sprintf("%d %d %016x", at, len(frame.Bytes()), h.Sum64()))
	})

	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	reset := 0
	srv.Go("srv", func(th *kern.Thread) {
		l, _ := srv.Stack.Listen(th, 80, stacks.Options{Backlog: conns})
		for i := 0; i < conns; i++ {
			c, err := l.Accept(th)
			if err != nil {
				return
			}
			srv.Go(fmt.Sprintf("srv%d", i), func(th *kern.Thread) {
				buf := make([]byte, 4096)
				for {
					if n, err := c.Read(th, buf); err != nil || n == 0 {
						break
					}
				}
				reset++
			})
		}
	})
	opened := 0
	for i := 0; i < conns; i++ {
		cli.GoAfter(time.Duration(i+1)*time.Millisecond, fmt.Sprintf("cli%d", i), func(th *kern.Thread) {
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				return
			}
			opened++
			for {
				if _, err := c.Write(th, pattern(256)); err != nil {
					return
				}
				th.Sleep(20 * time.Millisecond)
			}
		})
	}
	w.RunUntil(time.Minute, func() bool { return reset == conns })
	w.Run(2 * time.Second)
	if opened != conns || reset != conns {
		t.Fatalf("opened %d and reset %d of %d connections", opened, reset, conns)
	}
	return frames
}

// TestCrashManyConnsReplayDeterministic requires ten in-process replays of
// the many-connection crash to put the same frames on the wire.
func TestCrashManyConnsReplayDeterministic(t *testing.T) {
	first := runCrashManyConnsScenario(t)
	for i := 1; i < 10; i++ {
		diffTraces(t, uint64(i), first, runCrashManyConnsScenario(t))
	}
}
