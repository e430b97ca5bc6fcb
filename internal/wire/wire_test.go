package wire

import (
	"testing"
	"time"

	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/sim"
)

type fakeStation struct {
	addr     link.Addr
	got      []*pkt.Buf
	arrivals []sim.Time
	s        *sim.Sim
}

func (f *fakeStation) Addr() link.Addr { return f.addr }
func (f *fakeStation) Deliver(b *pkt.Buf) {
	f.got = append(f.got, b)
	f.arrivals = append(f.arrivals, f.s.Now())
}

func setup(cfg Config) (*sim.Sim, *Segment, *fakeStation, *fakeStation) {
	s := sim.New()
	g := New(s, cfg)
	a := &fakeStation{addr: link.MakeAddr(1), s: s}
	b := &fakeStation{addr: link.MakeAddr(2), s: s}
	g.Attach(a)
	g.Attach(b)
	return s, g, a, b
}

func TestUnicastDelivery(t *testing.T) {
	s, g, a, b := setup(EthernetConfig())
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, make([]byte, 100)))
	s.Run(0)
	if len(b.got) != 1 {
		t.Fatalf("b received %d frames, want 1", len(b.got))
	}
	if len(a.got) != 0 {
		t.Fatalf("a received %d frames, want 0", len(a.got))
	}
	// 124 bytes incl overhead at 10 Mb/s = 99.2µs + 10µs propagation.
	want := sim.Time(99200 + 10000)
	if b.arrivals[0] != want {
		t.Fatalf("arrival at %v, want %v", b.arrivals[0], want)
	}
}

func TestSharedMediumSerializes(t *testing.T) {
	s, g, a, b := setup(EthernetConfig())
	// Two 1500-byte frames transmitted at the same instant from different
	// stations must serialize on the shared medium.
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, make([]byte, 1500)))
	g.Transmit(b.addr, a.addr, pkt.FromBytes(0, make([]byte, 1500)))
	s.Run(0)
	tx := g.TxTime(1500)
	if b.arrivals[0] != sim.Time(tx+10*time.Microsecond) {
		t.Fatalf("first arrival %v, want %v", b.arrivals[0], tx+10*time.Microsecond)
	}
	if a.arrivals[0] != sim.Time(2*tx+10*time.Microsecond) {
		t.Fatalf("second arrival %v, want %v (serialized)", a.arrivals[0], 2*tx+10*time.Microsecond)
	}
}

func TestSwitchedMediumParallel(t *testing.T) {
	s, g, a, b := setup(AN1Config())
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, make([]byte, 1500)))
	g.Transmit(b.addr, a.addr, pkt.FromBytes(0, make([]byte, 1500)))
	s.Run(0)
	if a.arrivals[0] != b.arrivals[0] {
		t.Fatalf("switched transmissions should not contend: %v vs %v", a.arrivals[0], b.arrivals[0])
	}
}

func TestBroadcast(t *testing.T) {
	s, g, a, b := setup(EthernetConfig())
	c := &fakeStation{addr: link.MakeAddr(3), s: s}
	g.Attach(c)
	g.Transmit(a.addr, link.Broadcast, pkt.FromBytes(0, []byte("hello")))
	s.Run(0)
	if len(a.got) != 0 || len(b.got) != 1 || len(c.got) != 1 {
		t.Fatalf("broadcast delivery: a=%d b=%d c=%d", len(a.got), len(b.got), len(c.got))
	}
	// Broadcast copies must not alias.
	b.got[0].Bytes()[0] = 'X'
	if c.got[0].Bytes()[0] != 'h' {
		t.Fatal("broadcast deliveries alias one buffer")
	}
}

func TestUnknownDestinationVanishes(t *testing.T) {
	s, g, a, _ := setup(EthernetConfig())
	g.Transmit(a.addr, link.MakeAddr(99), pkt.FromBytes(0, []byte("x")))
	s.Run(0) // no panic, nothing delivered
	sent := g.Stats().Sent
	if sent != 1 {
		t.Fatalf("sent = %d", sent)
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	s := sim.New()
	g := New(s, EthernetConfig())
	g.Attach(&fakeStation{addr: link.MakeAddr(1), s: s})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate attach")
		}
	}()
	g.Attach(&fakeStation{addr: link.MakeAddr(1), s: s})
}

func TestLossInjection(t *testing.T) {
	s, g, a, b := setup(EthernetConfig())
	g.SetConditions(&LinkConditions{Seed: 42, LossProb: 0.5})
	const n = 200
	for i := 0; i < n; i++ {
		g.Transmit(a.addr, b.addr, pkt.FromBytes(0, make([]byte, 64)))
	}
	s.Run(0)
	dropped := g.Stats().Dropped
	if dropped == 0 || dropped == n {
		t.Fatalf("dropped = %d of %d, expected partial loss", dropped, n)
	}
	if len(b.got)+dropped != n {
		t.Fatalf("delivered %d + dropped %d != sent %d", len(b.got), dropped, n)
	}
}

func TestCorruptionInjection(t *testing.T) {
	s, g, a, b := setup(EthernetConfig())
	g.SetConditions(&LinkConditions{Seed: 7, CorruptProb: 1.0})
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, make([]byte, 32)))
	s.Run(0)
	if len(b.got) != 1 || !b.got[0].Meta.Corrupt {
		t.Fatal("expected corrupted delivery")
	}
	orig := make([]byte, 32)
	diff := 0
	for i, x := range b.got[0].Bytes() {
		if x != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bytes, want exactly 1 bit in 1 byte", diff)
	}
}

func TestDuplicationInjection(t *testing.T) {
	s, g, a, b := setup(EthernetConfig())
	g.SetConditions(&LinkConditions{Seed: 3, DupProb: 1.0})
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, []byte("dup")))
	s.Run(0)
	if len(b.got) != 2 {
		t.Fatalf("received %d frames, want 2 (duplicated)", len(b.got))
	}
}

func TestReorderInjection(t *testing.T) {
	s, g, a, b := setup(AN1Config())
	g.SetConditions(&LinkConditions{Seed: 1, ReorderProb: 1.0, ReorderDelay: time.Millisecond})
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, []byte{1}))
	s.Run(0)
	if b.arrivals[0] < sim.Time(time.Millisecond) {
		t.Fatalf("reordered frame arrived at %v, want >= 1ms", b.arrivals[0])
	}
}

func TestFaultDeterminism(t *testing.T) {
	run := func() (int, int) {
		s, g, a, b := setup(EthernetConfig())
		g.SetConditions(&LinkConditions{Seed: 99, LossProb: 0.3, DupProb: 0.2})
		for i := 0; i < 100; i++ {
			g.Transmit(a.addr, b.addr, pkt.FromBytes(0, make([]byte, 64)))
		}
		s.Run(0)
		dropped := g.Stats().Dropped
		return len(b.got), dropped
	}
	g1, d1 := run()
	g2, d2 := run()
	if g1 != g2 || d1 != d2 {
		t.Fatalf("fault injection not deterministic: (%d,%d) vs (%d,%d)", g1, d1, g2, d2)
	}
}

func TestTxTime(t *testing.T) {
	g := New(sim.New(), EthernetConfig())
	// 1500B + 24B overhead = 1524B = 12192 bits at 10 Mb/s = 1.2192 ms.
	if got := g.TxTime(1500); got != 1219200*time.Nanosecond {
		t.Fatalf("TxTime(1500) = %v", got)
	}
}
