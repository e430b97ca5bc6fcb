package wire

import (
	"fmt"
	"testing"
	"time"

	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/sim"
)

func setupSwitch(n int, sw SwitchConfig) (*sim.Sim, *Segment, []*fakeStation) {
	s := sim.New()
	g := NewSwitched(s, AN1Config(), sw)
	sts := make([]*fakeStation, n)
	for i := range sts {
		sts[i] = &fakeStation{addr: link.MakeAddr(i + 1), s: s}
		g.Attach(sts[i])
	}
	return s, g, sts
}

// TestSwitchLearningAndFlood: the first unicast to an unseen destination
// floods every port; once the destination transmits, frames take only its
// learned port.
func TestSwitchLearningAndFlood(t *testing.T) {
	s, g, sts := setupSwitch(4, SwitchConfig{})
	a, b, c, d := sts[0], sts[1], sts[2], sts[3]

	// b has never transmitted: a's frame floods to b, c and d.
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, make([]byte, 100)))
	s.Run(0)
	for _, st := range []*fakeStation{b, c, d} {
		if len(st.got) != 1 {
			t.Fatalf("station %s got %d frames from flood, want 1", st.addr, len(st.got))
		}
	}
	if len(a.got) != 0 {
		t.Fatal("flood must not reflect back out the ingress port")
	}
	if learned, switched, flooded := g.SwitchStats(); learned != 1 || switched != 0 || flooded != 1 {
		t.Fatalf("stats learned/switched/flooded = %d/%d/%d, want 1/0/1", learned, switched, flooded)
	}

	// b replies: the switch learns b, and a's next frame goes only to b.
	g.Transmit(b.addr, a.addr, pkt.FromBytes(0, make([]byte, 100)))
	s.Run(0)
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, make([]byte, 100)))
	s.Run(0)
	if len(b.got) != 2 || len(c.got) != 1 || len(d.got) != 1 {
		t.Fatalf("after learning: b/c/d got %d/%d/%d, want 2/1/1",
			len(b.got), len(c.got), len(d.got))
	}
	if learned, switched, flooded := g.SwitchStats(); learned != 2 || switched != 2 || flooded != 1 {
		t.Fatalf("stats learned/switched/flooded = %d/%d/%d, want 2/2/1", learned, switched, flooded)
	}
}

// TestSwitchBroadcast: broadcasts reach every station except the sender
// and do not populate the learning table with the broadcast address.
func TestSwitchBroadcast(t *testing.T) {
	s, g, sts := setupSwitch(3, SwitchConfig{})
	g.Transmit(sts[0].addr, link.Broadcast, pkt.FromBytes(0, make([]byte, 64)))
	s.Run(0)
	if len(sts[0].got) != 0 || len(sts[1].got) != 1 || len(sts[2].got) != 1 {
		t.Fatalf("broadcast delivery %d/%d/%d, want 0/1/1",
			len(sts[0].got), len(sts[1].got), len(sts[2].got))
	}
	if learned, _, _ := g.SwitchStats(); learned != 1 {
		t.Fatalf("learned = %d, want 1 (source only)", learned)
	}
}

// TestSwitchNoContentionAcrossPairs: disjoint host pairs transmitting
// simultaneously see identical latency — the property the shared wire
// cannot provide and the reason many-host worlds use the switch.
func TestSwitchNoContentionAcrossPairs(t *testing.T) {
	s, g, sts := setupSwitch(4, SwitchConfig{})
	// Prime the learning table so both flows are unicast-switched.
	for i, st := range sts {
		g.Transmit(st.addr, sts[i^1].addr, pkt.FromBytes(0, make([]byte, 10)))
		s.Run(0)
	}
	for _, st := range sts {
		st.got, st.arrivals = nil, nil
	}
	g.Transmit(sts[0].addr, sts[1].addr, pkt.FromBytes(0, make([]byte, 1500)))
	g.Transmit(sts[2].addr, sts[3].addr, pkt.FromBytes(0, make([]byte, 1500)))
	s.Run(0)
	if sts[1].arrivals[0] != sts[3].arrivals[0] {
		t.Fatalf("disjoint pairs contended: %v vs %v", sts[1].arrivals[0], sts[3].arrivals[0])
	}
}

// TestSwitchEgressContention: two frames converging on one destination
// serialize on that port's egress link, arriving one tx-time apart.
func TestSwitchEgressContention(t *testing.T) {
	s, g, sts := setupSwitch(3, SwitchConfig{})
	// Let the switch learn station 0 so both frames are unicast-switched.
	g.Transmit(sts[0].addr, sts[1].addr, pkt.FromBytes(0, make([]byte, 10)))
	s.Run(0)
	sts[1].got, sts[2].got = nil, nil

	g.Transmit(sts[1].addr, sts[0].addr, pkt.FromBytes(0, make([]byte, 1500)))
	g.Transmit(sts[2].addr, sts[0].addr, pkt.FromBytes(0, make([]byte, 1500)))
	s.Run(0)
	if len(sts[0].got) != 2 {
		t.Fatalf("destination got %d frames, want 2", len(sts[0].got))
	}
	gap := sts[0].arrivals[1] - sts[0].arrivals[0]
	if gap != sim.Time(g.TxTime(1500)) {
		t.Fatalf("egress serialization gap %v, want %v", gap, g.TxTime(1500))
	}
}

// TestSwitchLatencyAndTiming: end-to-end latency of a switched unicast is
// ingress tx + propagation + switch latency + egress tx + propagation.
func TestSwitchLatencyAndTiming(t *testing.T) {
	lat := 3 * time.Microsecond
	s, g, sts := setupSwitch(2, SwitchConfig{Latency: lat})
	g.Transmit(sts[1].addr, sts[0].addr, pkt.FromBytes(0, make([]byte, 10)))
	s.Run(0)
	sts[0].got, sts[0].arrivals = nil, nil
	start := s.Now()
	g.Transmit(sts[0].addr, sts[1].addr, pkt.FromBytes(0, make([]byte, 1000)))
	s.Run(0)
	tx := g.TxTime(1000)
	want := start + sim.Time(tx+g.cfg.Propagation+lat+tx+g.cfg.Propagation)
	if sts[1].arrivals[0] != want {
		t.Fatalf("arrival %v, want %v", sts[1].arrivals[0], want)
	}
}

// TestSwitchDeterminism: the same many-station traffic pattern produces
// the same delivery timeline on every run.
func TestSwitchDeterminism(t *testing.T) {
	run := func() string {
		s, g, sts := setupSwitch(8, SwitchConfig{Latency: time.Microsecond})
		g.SetFaults(Faults{Seed: 99, LossProb: 0.05, DupProb: 0.02})
		for round := 0; round < 5; round++ {
			for i := range sts {
				dst := sts[(i+round+1)%len(sts)]
				g.Transmit(sts[i].addr, dst.addr, pkt.FromBytes(0, make([]byte, 200+10*i)))
			}
			s.Run(0)
		}
		out := ""
		for i, st := range sts {
			out += fmt.Sprintf("%d:%d@%v;", i, len(st.got), st.arrivals)
		}
		learned, switched, flooded := g.SwitchStats()
		return fmt.Sprintf("%s L%d S%d F%d", out, learned, switched, flooded)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("switched fabric not deterministic:\n%s\n%s", a, b)
	}
}

// TestSwitchMacAging: a learned entry whose station has gone silent for
// longer than MacTTL must be treated as a miss — the frame floods and the
// address re-learns — instead of steering into a possibly-dead port
// forever. Pre-fix the table never aged, so the third transmit below was
// switched rather than flooded.
func TestSwitchMacAging(t *testing.T) {
	ttl := 500 * time.Millisecond
	s, g, sts := setupSwitch(3, SwitchConfig{MacTTL: ttl})
	a, b, c := sts[0], sts[1], sts[2]

	// b announces itself (broadcast): the switch learns it, and a's frame
	// takes the learned port — no flood, c sees nothing new.
	g.Transmit(b.addr, link.Broadcast, pkt.FromBytes(0, make([]byte, 64)))
	s.Run(0)
	cBefore := len(c.got)
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, make([]byte, 64)))
	s.Run(0)
	if len(b.got) != 1 || len(c.got) != cBefore {
		t.Fatalf("fresh entry flooded: b got %d (want 1), c got %d extra",
			len(b.got), len(c.got)-cBefore)
	}

	// b stays silent past the TTL: the stale entry must age out, so a's
	// next frame floods (c now sees a copy) and b re-learns only when it
	// next transmits.
	s.After(ttl+time.Millisecond, func() {})
	s.Run(0)
	_, _, floodedBefore := g.SwitchStats()
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, make([]byte, 64)))
	s.Run(0)
	if _, _, flooded := g.SwitchStats(); flooded != floodedBefore+1 {
		t.Fatalf("aged entry did not flood: flooded = %d, want %d", flooded, floodedBefore+1)
	}
	if len(b.got) != 2 || len(c.got) != cBefore+1 {
		t.Fatalf("aged entry: b got %d (want 2), c got %d extra (want 1)",
			len(b.got), len(c.got)-cBefore)
	}
}

// TestSwitchMacRefresh: steady traffic keeps an entry alive — each frame
// from a known source re-stamps its last-seen time, so an active station
// older than one TTL in total is still unicast-switched.
func TestSwitchMacRefresh(t *testing.T) {
	ttl := 500 * time.Millisecond
	s, g, sts := setupSwitch(3, SwitchConfig{MacTTL: ttl})
	a, b := sts[0], sts[1]

	// b transmits at t0 and again at 0.8 TTL; at 1.6 TTL (past t0+TTL but
	// within TTL of the refresh) a's frame must still switch, not flood.
	g.Transmit(b.addr, link.Broadcast, pkt.FromBytes(0, make([]byte, 64)))
	s.Run(0)
	s.After(4*ttl/5, func() {})
	s.Run(0)
	g.Transmit(b.addr, link.Broadcast, pkt.FromBytes(0, make([]byte, 64)))
	s.Run(0)
	s.After(4*ttl/5, func() {})
	s.Run(0)
	_, switchedBefore, floodedBefore := g.SwitchStats()
	g.Transmit(a.addr, b.addr, pkt.FromBytes(0, make([]byte, 64)))
	s.Run(0)
	_, switched, flooded := g.SwitchStats()
	if switched != switchedBefore+1 || flooded != floodedBefore {
		t.Fatalf("refreshed entry: switched/flooded deltas = %d/%d, want 1/0",
			switched-switchedBefore, flooded-floodedBefore)
	}
}
