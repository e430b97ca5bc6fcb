package wire

import (
	"testing"
	"time"

	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/sim"
)

// blast sends n small frames a→b spaced apart so the shared medium never
// queues them, and returns the delivery count.
func blast(s *sim.Sim, g *Segment, a, b *fakeStation, n int, gap time.Duration) {
	for i := 0; i < n; i++ {
		i := i
		s.After(time.Duration(i)*gap, func() {
			g.Transmit(a.addr, b.addr, pkt.FromBytes(0, []byte{byte(i)}))
		})
	}
	s.Run(0)
}

func TestConditionsNilIsPassThrough(t *testing.T) {
	s, g, a, b := setup(EthernetConfig())
	g.SetConditions(nil)
	g.SetConditions(&LinkConditions{}) // inactive plan must also clear
	blast(s, g, a, b, 10, time.Millisecond)
	if len(b.got) != 10 {
		t.Fatalf("delivered %d of 10 with no conditions", len(b.got))
	}
	if g.cond != nil {
		t.Fatal("inactive plan left a conditions layer installed")
	}
}

func TestGilbertElliottBurstsAndDeterminism(t *testing.T) {
	run := func() (delivered int, st Stats) {
		s, g, a, b := setup(EthernetConfig())
		g.SetConditions(&LinkConditions{
			Seed: 7,
			Burst: &GilbertElliott{
				PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.9,
			},
		})
		blast(s, g, a, b, 500, 500*time.Microsecond)
		return len(b.got), g.Stats()
	}
	d1, st1 := run()
	d2, st2 := run()
	if d1 != d2 || st1 != st2 {
		t.Fatalf("GE model not deterministic: %d/%+v vs %d/%+v", d1, st1, d2, st2)
	}
	if st1.BurstDrops == 0 || st1.BadStateFrames == 0 {
		t.Fatalf("no burst losses observed: %+v", st1)
	}
	if st1.BurstDrops == 500 {
		t.Fatal("every frame lost; burst model stuck in Bad state")
	}
	// Losses must be correlated: the Good state loses nothing, so every
	// drop happened in a Bad-state visit and drops can't exceed Bad-state
	// frames.
	if st1.BurstDrops > st1.BadStateFrames {
		t.Fatalf("drops %d exceed Bad-state frames %d", st1.BurstDrops, st1.BadStateFrames)
	}
}

func TestAsymmetricPathShape(t *testing.T) {
	s, g, a, b := setup(EthernetConfig())
	g.SetConditions(&LinkConditions{Seed: 1, Reverse: &PathShape{LossProb: 1.0}})
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, []byte{1})) // forward: clean
	g.Transmit(b.addr, a.addr, pkt.FromBytes(0, []byte{2})) // reverse: lost
	s.Run(0)
	if len(b.got) != 1 || len(a.got) != 0 {
		t.Fatalf("deliveries a=%d b=%d; want forward through, reverse lost", len(a.got), len(b.got))
	}
	if st := g.Stats(); st.PathDrops != 1 || st.Dropped != 1 {
		t.Fatalf("PathDrops/Dropped = %d/%d, want 1/1", st.PathDrops, st.Dropped)
	}
}

// TestPartitionWindowSeversOnlyCut: a partition severs exactly the frames
// sent while its window is open — unicast in either direction and
// broadcasts alike — and the segment carries traffic again once it heals.
func TestPartitionWindowSeversOnlyCut(t *testing.T) {
	s := sim.New()
	g := New(s, EthernetConfig())
	a := &fakeStation{addr: link.MakeAddr(1), s: s}
	b := &fakeStation{addr: link.MakeAddr(2), s: s}
	c := &fakeStation{addr: link.MakeAddr(3), s: s}
	g.Attach(a)
	g.Attach(b)
	g.Attach(c)
	g.SetConditions(&LinkConditions{
		Partitions: []Window{{From: 10 * time.Millisecond, Until: 20 * time.Millisecond}},
	})
	at := func(d time.Duration, src, dst link.Addr, tag byte) {
		s.After(d, func() { g.Transmit(src, dst, pkt.FromBytes(0, []byte{tag})) })
	}
	at(0, a.addr, b.addr, 1)                           // before window: delivered
	at(12*time.Millisecond, a.addr, b.addr, 2)         // inside: dropped
	at(14*time.Millisecond, b.addr, a.addr, 3)         // other direction: dropped
	at(16*time.Millisecond, c.addr, link.Broadcast, 5) // broadcast: dropped for all
	at(25*time.Millisecond, a.addr, b.addr, 4)         // healed: delivered
	s.Run(0)
	if len(a.got) != 0 || len(b.got) != 2 || len(c.got) != 0 {
		t.Fatalf("deliveries a=%d b=%d c=%d; want 0,2,0", len(a.got), len(b.got), len(c.got))
	}
	if b.got[0].Bytes()[0] != 1 || b.got[1].Bytes()[0] != 4 {
		t.Fatalf("b received %d,%d; want 1,4", b.got[0].Bytes()[0], b.got[1].Bytes()[0])
	}
	if st := g.Stats(); st.PartitionDrops != 3 || st.Dropped != 3 {
		t.Fatalf("PartitionDrops/Dropped = %d/%d, want 3/3", st.PartitionDrops, st.Dropped)
	}
}

func TestBlackholeAndPermanentWindow(t *testing.T) {
	s, g, a, b := setup(EthernetConfig())
	// Until 0 = never heals.
	g.SetConditions(&LinkConditions{
		Partitions: []Window{{From: 5 * time.Millisecond}},
	})
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, []byte{1}))
	s.After(10*time.Millisecond, func() {
		g.Transmit(a.addr, b.addr, pkt.FromBytes(0, []byte{2}))
	})
	s.After(10*time.Second, func() {
		g.Transmit(b.addr, a.addr, pkt.FromBytes(0, []byte{3}))
	})
	s.Run(0)
	if len(b.got) != 1 || len(a.got) != 0 {
		t.Fatalf("deliveries a=%d b=%d; want only the pre-blackhole frame", len(a.got), len(b.got))
	}
}

func TestFlapSchedule(t *testing.T) {
	s, g, a, b := setup(EthernetConfig())
	g.SetConditions(&LinkConditions{
		Flaps: []Window{
			{From: 10 * time.Millisecond, Until: 20 * time.Millisecond},
			{From: 30 * time.Millisecond, Until: 40 * time.Millisecond},
		},
	})
	for _, d := range []time.Duration{5, 15, 25, 35, 45} {
		d := d * time.Millisecond
		s.After(d, func() { g.Transmit(a.addr, b.addr, pkt.FromBytes(0, []byte{byte(d / time.Millisecond)})) })
	}
	s.Run(0)
	if len(b.got) != 3 {
		t.Fatalf("delivered %d frames, want 3 (up/down/up/down/up)", len(b.got))
	}
	for i, want := range []byte{5, 25, 45} {
		if got := b.got[i].Bytes()[0]; got != want {
			t.Errorf("delivery %d = frame at %dms, want %dms", i, got, want)
		}
	}
	if st := g.Stats(); st.FlapDrops != 2 {
		t.Fatalf("FlapDrops = %d, want 2", st.FlapDrops)
	}
}

func TestQueueModelDelaysAndTailDrops(t *testing.T) {
	s, g, a, b := setup(AN1Config())
	// 1 Mb/s bottleneck: a 100B+16B frame takes 928µs of service time.
	g.SetConditions(&LinkConditions{
		Queue: &QueueModel{RateBitsPerSec: 1_000_000, MaxFrames: 3},
	})
	for i := 0; i < 5; i++ {
		g.Transmit(a.addr, b.addr, pkt.FromBytes(0, make([]byte, 100)))
	}
	s.Run(0)
	st := g.Stats()
	if len(b.got) != 3 || st.QueueDrops != 2 {
		t.Fatalf("delivered %d, tail-dropped %d; want 3 and 2", len(b.got), st.QueueDrops)
	}
	if st.QueuedFrames == 0 {
		t.Fatal("no frame recorded queueing delay")
	}
	// Departures are serialized at the bottleneck rate: consecutive
	// deliveries must be >= one service time apart.
	svc := sim.Time((100 + 16) * 8 * time.Second / 1_000_000)
	for i := 1; i < len(b.arrivals); i++ {
		if got := b.arrivals[i] - b.arrivals[i-1]; got < svc {
			t.Fatalf("deliveries %d..%d only %v apart, want >= %v", i-1, i, got, svc)
		}
	}
	// Queue occupancy must fully drain.
	if g.cond.qLen != 0 {
		t.Fatalf("queue length %d after drain, want 0", g.cond.qLen)
	}
}

// TestConditionsComposeWithFaults checks the draw discipline: each
// probabilistic stage draws from its own generator, so turning on a later
// stage (here a burst model) leaves the frame-fault stage's draws, and the
// frames it lets through, exactly as they were.
func TestConditionsComposeWithFaults(t *testing.T) {
	run := func(withBurst bool) (survivors []byte) {
		s, g, a, b := setup(EthernetConfig())
		lc := &LinkConditions{Seed: 42, LossProb: 0.3}
		if withBurst {
			lc.Burst = &GilbertElliott{PGoodBad: 1.0, PBadGood: 0.0, LossBad: 0.0}
		}
		g.SetConditions(lc)
		blast(s, g, a, b, 50, time.Millisecond)
		for _, f := range b.got {
			survivors = append(survivors, f.Bytes()[0])
		}
		return
	}
	plain := run(false)
	layered := run(true)
	// The burst model above changes state but never drops, so the exact
	// same frames must survive: any difference means the burst stage
	// perturbed the frame-fault draws.
	if len(plain) != len(layered) {
		t.Fatalf("survivor count %d vs %d with a pass-through burst stage", len(plain), len(layered))
	}
	for i := range plain {
		if plain[i] != layered[i] {
			t.Fatalf("survivor %d differs (%d vs %d): the burst stage shifted the frame-fault draws", i, plain[i], layered[i])
		}
	}
}

func TestReorderCounterAndStats(t *testing.T) {
	s, g, a, b := setup(AN1Config())
	g.SetConditions(&LinkConditions{Seed: 1, ReorderProb: 1.0, ReorderDelay: time.Millisecond})
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, []byte{1}))
	s.Run(0)
	reordered := g.Stats().Reordered
	if reordered != 1 {
		t.Fatalf("Stats().Reordered = %d, want 1", reordered)
	}
}
