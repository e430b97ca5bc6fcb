package conform

import (
	"strings"
	"testing"
	"time"

	"ulp/internal/ipv4"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/tcp"
	"ulp/internal/trace"
)

const tick = 500 * time.Millisecond

// st builds a TCPState event.
func st(at time.Duration, conn string, from, to tcp.State, via tcp.Trigger) trace.Event {
	return trace.Event{
		At: at, Kind: trace.TCPState, Conn: conn,
		A: int64(from), B: int64(to), C: int64(via),
		Text: from.String() + "->" + to.String(),
	}
}

func feed(k *Checker, evs ...trace.Event) {
	for _, e := range evs {
		k.HandleEvent(e)
	}
}

// expectOne asserts exactly one violation with the given rule.
func expectOne(t *testing.T, k *Checker, rule string) Violation {
	t.Helper()
	vs := k.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want exactly 1 (%s): %v", len(vs), rule, vs)
	}
	if vs[0].Rule != rule {
		t.Fatalf("violation rule = %q, want %q (%v)", vs[0].Rule, rule, vs[0])
	}
	return vs[0]
}

func TestSpecRelation(t *testing.T) {
	edges := legalEdges
	if len(edges) != 42 {
		t.Errorf("legal relation has %d edges, want 42", len(edges))
	}
	for _, e := range edges {
		if !Legal(e.From, e.To, e.Via) {
			t.Errorf("enumerated edge %v not Legal()", e)
		}
	}
	// Spot checks: the classic diagram edges and some famous non-edges.
	yes := []Edge{
		{tcp.Closed, tcp.Listen, tcp.TrigUser},
		{tcp.SynSent, tcp.SynRcvd, tcp.TrigSegment},
		{tcp.FinWait1, tcp.Closing, tcp.TrigSegment},
		{tcp.TimeWait, tcp.Closed, tcp.TrigTimer},
	}
	for _, e := range yes {
		if !Legal(e.From, e.To, e.Via) {
			t.Errorf("%v should be legal", e)
		}
	}
	no := []Edge{
		{tcp.FinWait2, tcp.Closed, tcp.TrigSegment}, // skipping TIME_WAIT
		{tcp.Closed, tcp.Established, tcp.TrigSegment},
		{tcp.TimeWait, tcp.Established, tcp.TrigSegment},
		{tcp.Listen, tcp.SynRcvd, tcp.TrigTimer}, // right edge, wrong trigger
	}
	for _, e := range no {
		if Legal(e.From, e.To, e.Via) {
			t.Errorf("%v should be illegal", e)
		}
	}
}

func TestLegalLifecycleNoViolations(t *testing.T) {
	k := New(Config{})
	base := time.Second
	feed(k,
		st(base, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(base+10*time.Millisecond, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		st(base+time.Second, "c", tcp.Established, tcp.FinWait1, tcp.TrigUser),
		st(base+time.Second+10*time.Millisecond, "c", tcp.FinWait1, tcp.FinWait2, tcp.TrigSegment),
		st(base+time.Second+20*time.Millisecond, "c", tcp.FinWait2, tcp.TimeWait, tcp.TrigSegment),
		trace.Event{At: base + time.Second + 20*time.Millisecond,
			Kind: trace.TCPTimeWait, Conn: "c", A: 120},
	)
	// Release exactly 120 ticks later (phase-aligned).
	feed(k, st(base+time.Second+20*time.Millisecond+120*tick,
		"c", tcp.TimeWait, tcp.Closed, tcp.TrigTimer))
	if vs := k.Violations(); len(vs) != 0 {
		t.Fatalf("legal lifecycle produced violations: %v", vs)
	}
	if got := k.Coverage().Count(); got != 6 {
		t.Errorf("coverage = %d distinct edges, want 6", got)
	}
}

func TestIllegalEdge(t *testing.T) {
	k := New(Config{})
	// ESTABLISHED->LISTEN exists under no trigger at all.
	feed(k,
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		st(2*tick, "c", tcp.Established, tcp.Listen, tcp.TrigSegment),
	)
	v := expectOne(t, k, RuleIllegalEdge)
	if v.Edge == nil || v.Edge.From != tcp.Established || v.Edge.To != tcp.Listen {
		t.Errorf("violation edge = %v, want ESTABLISHED->LISTEN", v.Edge)
	}
	if !strings.Contains(v.Detail, "LISTEN") {
		t.Errorf("detail %q does not name the edge", v.Detail)
	}
}

func TestSkipTimeWaitSignature(t *testing.T) {
	k := New(Config{})
	// The injected-bug signature: FIN_WAIT_2 closing on a segment without
	// passing through TIME_WAIT. The edge exists for abort (user) and
	// reset, so this classifies as a trigger violation.
	feed(k,
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		st(2*tick, "c", tcp.Established, tcp.FinWait1, tcp.TrigUser),
		st(3*tick, "c", tcp.FinWait1, tcp.FinWait2, tcp.TrigSegment),
		st(4*tick, "c", tcp.FinWait2, tcp.Closed, tcp.TrigSegment),
	)
	v := expectOne(t, k, RuleBadTrigger)
	if v.Edge == nil || v.Edge.From != tcp.FinWait2 || v.Edge.To != tcp.Closed {
		t.Errorf("violation edge = %v, want FIN_WAIT_2->CLOSED", v.Edge)
	}
}

func TestBadTrigger(t *testing.T) {
	k := New(Config{})
	// ESTABLISHED->CLOSE_WAIT is a real edge but only a peer FIN (segment)
	// may cause it.
	feed(k,
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		st(2*tick, "c", tcp.Established, tcp.CloseWait, tcp.TrigTimer),
	)
	expectOne(t, k, RuleBadTrigger)
}

func TestStateDiscontinuity(t *testing.T) {
	k := New(Config{})
	feed(k,
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		// Claims to leave FIN_WAIT_1, but the connection is in ESTABLISHED.
		st(2*tick, "c", tcp.FinWait1, tcp.FinWait2, tcp.TrigSegment),
	)
	expectOne(t, k, RuleDiscontinuity)
}

func TestTimeWaitCutShort(t *testing.T) {
	k := New(Config{})
	feed(k,
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		st(2*tick, "c", tcp.Established, tcp.FinWait1, tcp.TrigUser),
		st(3*tick, "c", tcp.FinWait1, tcp.FinWait2, tcp.TrigSegment),
		st(4*tick, "c", tcp.FinWait2, tcp.TimeWait, tcp.TrigSegment),
		trace.Event{At: 4 * tick, Kind: trace.TCPTimeWait, Conn: "c", A: 120},
		// Released after only 10 ticks instead of 120.
		st(14*tick, "c", tcp.TimeWait, tcp.Closed, tcp.TrigTimer),
	)
	expectOne(t, k, RuleTimeWait)
}

func TestTimeWaitRearmRestartsClock(t *testing.T) {
	k := New(Config{})
	feed(k,
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		st(2*tick, "c", tcp.Established, tcp.FinWait1, tcp.TrigUser),
		st(3*tick, "c", tcp.FinWait1, tcp.FinWait2, tcp.TrigSegment),
		st(4*tick, "c", tcp.FinWait2, tcp.TimeWait, tcp.TrigSegment),
		trace.Event{At: 4 * tick, Kind: trace.TCPTimeWait, Conn: "c", A: 120},
		// A retransmitted peer FIN 30 ticks in restarts the 2*MSL clock.
		trace.Event{At: 34 * tick, Kind: trace.TCPTimeWait, Conn: "c", A: 120},
		st(154*tick, "c", tcp.TimeWait, tcp.Closed, tcp.TrigTimer),
	)
	if vs := k.Violations(); len(vs) != 0 {
		t.Fatalf("re-armed TIME_WAIT release flagged: %v", vs)
	}
}

func TestKarnViolation(t *testing.T) {
	k := New(Config{})
	feed(k,
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		trace.Event{At: 20 * tick, Kind: trace.TCPRexmit, Conn: "c",
			A: 1, B: 12, Text: "timeout"},
		// A 10-tick sample only 1 tick after the retransmission must span it.
		trace.Event{At: 21 * tick, Kind: trace.TCPRTO, Conn: "c", A: 10, B: 11},
	)
	vs := k.Violations()
	var karn int
	for _, v := range vs {
		if v.Rule == RuleKarn {
			karn++
		}
	}
	if karn != 1 {
		t.Fatalf("got %d karn violations, want 1: %v", karn, vs)
	}
}

func TestRTOMismatch(t *testing.T) {
	k := New(Config{})
	feed(k,
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		// First sample m=2: srtt=16, rttvar=4 => RTO = 2+4 = 6. Correct.
		trace.Event{At: 10 * tick, Kind: trace.TCPRTO, Conn: "c", A: 3, B: 6},
		// Second sample m=2: delta=0, rttvar decays to 3 => RTO = 5. Lie.
		trace.Event{At: 20 * tick, Kind: trace.TCPRTO, Conn: "c", A: 3, B: 9},
	)
	expectOne(t, k, RuleRTOMismatch)
}

func TestRexmitAndPersistStateRules(t *testing.T) {
	k := New(Config{})
	feed(k,
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		st(2*tick, "c", tcp.Established, tcp.FinWait1, tcp.TrigUser),
		st(3*tick, "c", tcp.FinWait1, tcp.FinWait2, tcp.TrigSegment),
		// FIN_WAIT_2 has nothing outstanding: probing there is a bug.
		trace.Event{At: 4 * tick, Kind: trace.TCPPersist, Conn: "c", A: 1, B: 20},
	)
	expectOne(t, k, RulePersistState)

	k2 := New(Config{})
	feed(k2,
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		st(2*tick, "c", tcp.Established, tcp.FinWait1, tcp.TrigUser),
		st(3*tick, "c", tcp.FinWait1, tcp.FinWait2, tcp.TrigSegment),
		trace.Event{At: 4 * tick, Kind: trace.TCPRexmit, Conn: "c",
			A: 1, B: 12, Text: "timeout"},
	)
	expectOne(t, k2, RuleRexmitState)
}

// seg feeds a decoded segment through the direct-feed path.
func seg(k *Checker, at time.Duration, sp, dp uint16, seqn, ackn tcp.Seq, flags uint8, dataLen int) {
	src := tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 1}, Port: sp}
	dst := tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 2}, Port: dp}
	k.Segment(at, src, dst, tcp.Header{Seq: seqn, Ack: ackn, Flags: flags}, dataLen)
}

func TestAckRegression(t *testing.T) {
	k := New(Config{})
	seg(k, 0, 1000, 2000, 100, 0, tcp.FlagSYN, 0)
	seg(k, tick, 1000, 2000, 101, 5000, tcp.FlagACK, 0)
	seg(k, 2*tick, 1000, 2000, 101, 6000, tcp.FlagACK, 0)
	seg(k, 3*tick, 1000, 2000, 101, 5500, tcp.FlagACK, 0) // regress
	expectOne(t, k, RuleAckRegress)
}

func TestDataAfterFin(t *testing.T) {
	k := New(Config{})
	seg(k, 0, 1000, 2000, 100, 50, tcp.FlagACK|tcp.FlagFIN, 10) // FIN at 110
	seg(k, tick, 1000, 2000, 100, 50, tcp.FlagACK, 10)          // retransmit: fine
	seg(k, 2*tick, 1000, 2000, 111, 50, tcp.FlagACK, 5)         // beyond the FIN
	expectOne(t, k, RuleDataAfterFin)
}

func TestFinMoved(t *testing.T) {
	k := New(Config{})
	seg(k, 0, 1000, 2000, 100, 50, tcp.FlagACK|tcp.FlagFIN, 10)     // FIN at 110
	seg(k, tick, 1000, 2000, 100, 50, tcp.FlagACK|tcp.FlagFIN, 10)  // same FIN: fine
	seg(k, 2*tick, 1000, 2000, 115, 50, tcp.FlagACK|tcp.FlagFIN, 0) // FIN at 115
	expectOne(t, k, RuleFinMoved)
}

func TestRSTSegmentsExempt(t *testing.T) {
	k := New(Config{})
	seg(k, 0, 1000, 2000, 100, 6000, tcp.FlagACK, 0)
	// A shell answering a stray segment echoes its ACK as seq with an
	// arbitrary (lower) ack — legal for RST.
	seg(k, tick, 1000, 2000, 0, 50, tcp.FlagRST|tcp.FlagACK, 0)
	if vs := k.Violations(); len(vs) != 0 {
		t.Fatalf("RST flagged: %v", vs)
	}
}

// TestFrameParser drives the raw-frame path with frames built by the real
// encoders, for both link framings, and checks a violation is still caught
// through the full parse.
func TestFrameParser(t *testing.T) {
	for _, framing := range []string{"eth", "an1"} {
		t.Run(framing, func(t *testing.T) {
			k := New(Config{})
			build := func(seqn, ackn tcp.Seq, flags uint8, payload []byte) []byte {
				src, dst := ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}
				b := pkt.FromBytes(128, payload)
				th := tcp.Header{SrcPort: 1000, DstPort: 2000,
					Seq: seqn, Ack: ackn, Flags: flags, Window: 4096}
				th.Encode(b, src, dst)
				ih := ipv4.Header{Src: src, Dst: dst, Proto: ipv4.ProtoTCP, TTL: 64}
				ih.Encode(b)
				if framing == "eth" {
					lh := link.EthHeader{Dst: link.MakeAddr(2), Src: link.MakeAddr(1),
						Type: link.TypeIPv4}
					lh.Encode(b)
				} else {
					lh := link.AN1Header{Dst: link.MakeAddr(2), Src: link.MakeAddr(1),
						BQI: 3, AdvBQI: 7, Type: link.TypeIPv4}
					lh.Encode(b)
				}
				return append([]byte(nil), b.Bytes()...)
			}
			frame := func(at time.Duration, raw []byte) trace.Event {
				return trace.Event{At: at, Kind: trace.FrameTx, Frame: raw, A: int64(len(raw))}
			}
			feed(k,
				frame(0, build(100, 5000, tcp.FlagACK, []byte("abc"))),
				frame(tick, build(103, 6000, tcp.FlagACK, nil)),
				frame(2*tick, build(103, 5500, tcp.FlagACK, nil)), // regress
			)
			expectOne(t, k, RuleAckRegress)
		})
	}
}

// TestBusAttach checks the checker observes a live engine through a bus and
// stays silent on a conformant run.
func TestBusAttach(t *testing.T) {
	now := time.Duration(0)
	bus := trace.NewBus(func() time.Duration { return now })
	k := New(Config{})
	k.Attach(bus)
	c := tcp.NewConn(tcp.Config{MSS: 512},
		tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 1}, Port: 1},
		tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 2}, Port: 2},
		tcp.Callbacks{})
	c.SetTrace(bus, "t")
	c.OpenActive(1)
	c.Close()
	if vs := k.Violations(); len(vs) != 0 {
		t.Fatalf("open/close flagged: %v", vs)
	}
	if k.Coverage().hits[Edge{tcp.Closed, tcp.SynSent, tcp.TrigUser}] == 0 {
		t.Error("active open edge not covered")
	}
}
