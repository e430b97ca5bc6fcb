package conform

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ulp/internal/ipv4"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/tcp"
	"ulp/internal/trace"
)

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
	k := New()
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
	k := New()
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

// TestReportsPastTheCapAreCounted: a run that breaks a rule 150 times keeps
// the first 100 reports and counts all 150.
func TestReportsPastTheCapAreCounted(t *testing.T) {
	k := New()
	for i := range 150 {
		conn := fmt.Sprintf("c%d", i)
		feed(k,
			st(0, conn, tcp.Closed, tcp.SynSent, tcp.TrigUser),
			st(tick, conn, tcp.SynSent, tcp.Established, tcp.TrigSegment),
			st(2*tick, conn, tcp.Established, tcp.Listen, tcp.TrigSegment),
		)
	}
	if n, kept := k.Reported(), len(k.Violations()); n != 150 || kept != maxViolations {
		t.Fatalf("%d violations counted and %d kept, want 150 and %d", n, kept, maxViolations)
	}
}

func TestSkipTimeWaitSignature(t *testing.T) {
	k := New()
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
	k := New()
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
	k := New()
	feed(k,
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		// Claims to leave FIN_WAIT_1, but the connection is in ESTABLISHED.
		st(2*tick, "c", tcp.FinWait1, tcp.FinWait2, tcp.TrigSegment),
	)
	expectOne(t, k, RuleDiscontinuity)
}

func TestTimeWaitCutShort(t *testing.T) {
	k := New()
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

// TestTimeWaitFireAndRelease: the rule bounds the instant the wheel fired
// the 2*MSL, not the release, which waits for the CPU and the connection
// after the fire and may come no sooner.
func TestTimeWaitFireAndRelease(t *testing.T) {
	armed := 4 * tick
	release := func(fired, at time.Duration) trace.Event {
		e := st(at, "c", tcp.TimeWait, tcp.Closed, tcp.TrigTimer)
		e.Fired = fired
		return e
	}
	for _, tc := range []struct {
		name string
		rel  trace.Event
		rule string // "" for none
	}{
		{"on time", release(armed+120*tick, armed+120*tick+time.Millisecond), ""},
		{"late release of a timely fire", release(armed+120*tick, armed+122*tick), ""},
		{"late fire", release(armed+122*tick, armed+122*tick), RuleTimeWait},
		{"early fire", release(armed+118*tick-time.Millisecond, armed+120*tick), RuleTimeWait},
		{"release before the fire", release(armed+120*tick, armed+119*tick), RuleTimeWait},
		{"no wheel, late release", release(0, armed+122*tick), RuleTimeWait},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			feed(k,
				st(3*tick, "c", tcp.FinWait2, tcp.TimeWait, tcp.TrigSegment),
				trace.Event{At: armed, Kind: trace.TCPTimeWait, Conn: "c", A: 120},
				tc.rel,
			)
			if tc.rule == "" {
				if vs := k.Violations(); len(vs) != 0 {
					t.Fatalf("flagged: %v", vs)
				}
				return
			}
			expectOne(t, k, tc.rule)
		})
	}
}

func TestTimeWaitRearmRestartsClock(t *testing.T) {
	k := New()
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
	k := New()
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
	k := New()
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

// TestBackoffBase: a time-out backs off from the estimator's RTO once a
// sample exists, even a one-tick sample that leaves srtt at 0, and from 3 s
// before. A reopened label's base is not checked until its next sample.
func TestBackoffBase(t *testing.T) {
	rexmit := func(at time.Duration, shift, rto int64) trace.Event {
		return trace.Event{At: at, Kind: trace.TCPRexmit, Conn: "c", A: shift, B: rto, Text: "timeout"}
	}
	open := []trace.Event{
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		rexmit(6*tick, 1, 12), // no sample yet: 3 s doubled
		st(7*tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		trace.Event{At: 8 * tick, Kind: trace.TCPRTO, Conn: "c", A: 1, B: 2},
	}
	k := New()
	feed(k, open...)
	feed(k, rexmit(10*tick, 1, 4), rexmit(14*tick, 2, 8))
	if vs := k.Violations(); len(vs) != 0 {
		t.Fatalf("back-off from the sampled RTO flagged: %v", vs)
	}
	k = New()
	feed(k, open...)
	feed(k, rexmit(10*tick, 1, 12))
	expectOne(t, k, RuleRTOMismatch)

	k = New()
	feed(k, open...)
	feed(k,
		st(9*tick, "c", tcp.Established, tcp.Closed, tcp.TrigUser),
		st(10*tick, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		rexmit(16*tick, 1, 12),
	)
	if vs := k.Violations(); len(vs) != 0 {
		t.Fatalf("reopened label's back-off flagged: %v", vs)
	}
}

func TestRexmitAndPersistStateRules(t *testing.T) {
	k := New()
	feed(k,
		st(0, "c", tcp.Closed, tcp.SynSent, tcp.TrigUser),
		st(tick, "c", tcp.SynSent, tcp.Established, tcp.TrigSegment),
		st(2*tick, "c", tcp.Established, tcp.FinWait1, tcp.TrigUser),
		st(3*tick, "c", tcp.FinWait1, tcp.FinWait2, tcp.TrigSegment),
		// FIN_WAIT_2 has nothing outstanding: probing there is a bug.
		trace.Event{At: 4 * tick, Kind: trace.TCPPersist, Conn: "c", A: 1, B: 20},
	)
	expectOne(t, k, RulePersistState)

	k2 := New()
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
	k := New()
	seg(k, 0, 1000, 2000, 100, 0, tcp.FlagSYN, 0)
	seg(k, tick, 1000, 2000, 101, 5000, tcp.FlagACK, 0)
	seg(k, 2*tick, 1000, 2000, 101, 6000, tcp.FlagACK, 0)
	seg(k, 3*tick, 1000, 2000, 101, 5500, tcp.FlagACK, 0) // regress
	expectOne(t, k, RuleAckRegress)
}

func TestDataAfterFin(t *testing.T) {
	k := New()
	seg(k, 0, 1000, 2000, 100, 50, tcp.FlagACK|tcp.FlagFIN, 10) // FIN at 110
	seg(k, tick, 1000, 2000, 100, 50, tcp.FlagACK, 10)          // retransmit: fine
	seg(k, 2*tick, 1000, 2000, 111, 50, tcp.FlagACK, 5)         // beyond the FIN
	expectOne(t, k, RuleDataAfterFin)
}

func TestFinMoved(t *testing.T) {
	k := New()
	seg(k, 0, 1000, 2000, 100, 50, tcp.FlagACK|tcp.FlagFIN, 10)     // FIN at 110
	seg(k, tick, 1000, 2000, 100, 50, tcp.FlagACK|tcp.FlagFIN, 10)  // same FIN: fine
	seg(k, 2*tick, 1000, 2000, 115, 50, tcp.FlagACK|tcp.FlagFIN, 0) // FIN at 115
	expectOne(t, k, RuleFinMoved)
}

func TestRSTSegmentsExempt(t *testing.T) {
	k := New()
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
			k := New()
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
	k := New()
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

// Sender-side rule scripts: the connection labelled conn sends from a to b,
// and a step is one frame or trace event fed to the checker.
const conn = "h1 10.0.0.1:1000>10.0.0.2:2000"

var (
	epA = tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 1}, Port: 1000}
	epB = tcp.Endpoint{IP: ipv4.Addr{10, 0, 0, 2}, Port: 2000}
)

type step func(k *Checker)

// data is a sends n bytes at seqn; ack is b acknowledging ackn.
func data(at time.Duration, seqn tcp.Seq, n int) step {
	return func(k *Checker) {
		k.Segment(at, epA, epB, tcp.Header{Seq: seqn, Ack: 5000, Flags: tcp.FlagACK}, n)
	}
}

func ack(at time.Duration, ackn tcp.Seq) step {
	return func(k *Checker) {
		k.Segment(at, epB, epA, tcp.Header{Seq: 5000, Ack: ackn, Flags: tcp.FlagACK}, 0)
	}
}

func ev(e trace.Event) step {
	return func(k *Checker) { e.Conn = conn; k.HandleEvent(e) }
}

func probe(at time.Duration, shift int64, una tcp.Seq) step {
	return ev(trace.Event{At: at, Kind: trace.TCPRexmit, A: shift, B: 2, C: int64(una), Text: "probe"})
}

// fast is a fast retransmission after dups duplicates: 3 begins recovery,
// 0 answers a partial ACK.
func fast(at time.Duration, dups int64) step {
	return ev(trace.Event{At: at, Kind: trace.TCPRexmit, B: 2, C: dups, Text: "fast"})
}

func timeout(at time.Duration) step {
	return ev(trace.Event{At: at, Kind: trace.TCPRexmit, A: 1, B: 12, C: 1, Text: "timeout"})
}

// flight opens conn and has a send [101, 1601) in three segments at 1 s.
var flight = []step{
	ev(st(0, conn, tcp.Closed, tcp.SynSent, tcp.TrigUser)),
	ev(st(100*time.Millisecond, conn, tcp.SynSent, tcp.Established, tcp.TrigSegment)),
	ack(100*time.Millisecond, 101),
	data(time.Second, 101, 500),
	data(time.Second, 601, 500),
	data(time.Second, 1101, 500),
}

// checkSteps feeds flight and then steps, and wants a report of rule alone,
// or none if rule is "".
func checkSteps(t *testing.T, steps []step, rule string) {
	t.Helper()
	k := New()
	for _, s := range append(append([]step{}, flight...), steps...) {
		s(k)
	}
	if rule == "" {
		if vs := k.Violations(); len(vs) != 0 {
			t.Fatalf("legal run flagged: %v", vs)
		}
		return
	}
	expectOne(t, k, rule)
}

// TestProbeRules: a tail loss probe comes once per tail until an ACK above
// the snd_una it probed at, never in fast recovery, never within a fast
// tick of new data or an RTT sample, and never after a back-off.
func TestProbeRules(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name  string
		steps []step
		rule  string // "" for none
	}{
		{"probe, ACK, probe", []step{probe(1500*ms, 0, 101), ack(1600*ms, 601), probe(2200*ms, 0, 601)}, ""},
		{"second probe with no ACK", []step{probe(1500*ms, 0, 101), ack(1600*ms, 101), probe(2200*ms, 0, 101)}, RuleProbeRepeat},
		// The ACK above snd_una was sent before the first probe; the
		// sender may have it only after.
		{"ACK on its way at the first probe", []step{ack(1450*ms, 601), probe(1500*ms, 0, 101), probe(2200*ms, 0, 601)}, ""},
		{"probe in recovery", []step{fast(1200*ms, 3), probe(1800*ms, 0, 101)}, RuleProbeRecovery},
		{"partial ACK keeps recovery", []step{fast(1200*ms, 3), ack(1300*ms, 601), fast(1300*ms, 0), probe(1900*ms, 0, 601)}, RuleProbeRecovery},
		{"full ACK ends recovery", []step{fast(1200*ms, 3), ack(1300*ms, 1601), data(1400*ms, 1601, 500), probe(2000*ms, 0, 1601)}, ""},
		{"time-out ends recovery", []step{fast(1200*ms, 3), timeout(2 * time.Second), ack(2100*ms, 601), probe(2700*ms, 0, 601)}, ""},
		{"probe right after new data", []step{data(1100*ms, 1601, 500), probe(1200*ms, 0, 101)}, RuleProbeEarly},
		{"probe right after an RTT sample", []step{ev(trace.Event{At: 1400 * ms, Kind: trace.TCPRTO, A: 1, B: 2}), probe(1500*ms, 0, 101)}, RuleProbeEarly},
		{"probe after a back-off", []step{probe(1500*ms, 1, 101)}, RuleRexmitRange},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSteps(t, tc.steps, tc.rule) })
	}
}

// TestFastEntryRule: three duplicates begin fast recovery only once an ACK
// of recover, what was sent at the last recovery entry or time-out, has
// been sent back; the first recovery needs none. Below recover they may
// echo a time-out's resends.
func TestFastEntryRule(t *testing.T) {
	ms := time.Millisecond
	// The next flight, [1601, 3101), which b acknowledges only to 1601.
	next := []step{data(2200*ms, 1601, 500), data(2200*ms, 2101, 500), data(2200*ms, 2601, 500)}
	for _, tc := range []struct {
		name  string
		steps []step
		rule  string // "" for none
	}{
		{"first recovery", []step{fast(1200*ms, 3)}, ""},
		{"partial ACK's retransmission", []step{fast(1200*ms, 3), ack(1300*ms, 601), fast(1300*ms, 0)}, ""},
		{"full ACK at recover, recovery", append([]step{fast(1200*ms, 3), ack(1300*ms, 1601)}, append(next, fast(2400*ms, 3))...), ""},
		{"recovery with recover unacknowledged", []step{fast(1200*ms, 3), ack(1300*ms, 1101), fast(1400*ms, 3)}, RuleFastEntry},
		{"time-out, ACK of recover, recovery", append([]step{timeout(2 * time.Second), ack(2100*ms, 1601)}, append(next, fast(2400*ms, 3))...), ""},
		{"time-out, duplicates below recover", []step{timeout(2 * time.Second), ack(2100*ms, 601), fast(2300*ms, 3)}, RuleFastEntry},
		// The ACK of recover was sent before the time-out and is lost or
		// late; the sender may have it only after.
		{"ACK of recover on its way at the time-out", append([]step{ack(1900*ms, 1601), timeout(2 * time.Second)}, append(next, fast(2400*ms, 3))...), ""},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSteps(t, tc.steps, tc.rule) })
	}
}
