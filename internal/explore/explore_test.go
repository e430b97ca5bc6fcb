package explore

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"ulp/internal/conform"
	"ulp/internal/tcp"
)

// TestLibraryFullCoverage: the baseline scenario library alone must walk
// every edge of the legal transition relation, with zero violations on the
// healthy engine.
func TestLibraryFullCoverage(t *testing.T) {
	x := New(0, 0)
	for _, sc := range Library() {
		res := x.run(sc, nil)
		for _, v := range res.Violations {
			t.Errorf("%s: %v", sc.Name, v)
		}
	}
	if x.cov.Count() != x.cov.Total() {
		t.Errorf("library covers %d/%d legal edges; missing: %v",
			x.cov.Count(), x.cov.Total(), x.cov.Missing())
	}
}

// TestTailLossScenarios: the tail-loss scenarios still lose what they mean
// to. In the first, A's probe draws the duplicate that starts fast
// retransmission, which repairs the hole with no time-out; in the second,
// fast retransmission starts with no probe, is lost, and the time-out
// repairs it; in the third, a loss right after a recovery's full ACK at
// recover is repaired by a second fast retransmission, with no time-out;
// in the fourth, three duplicates below a time-out's recover start no
// recovery, and a second time-out repairs the hole. A's segment count pins
// that every probe puts a segment on the wire: the fourth's probe at 4.9 s
// resends the highest segment of a flight limited transmit took past cwnd.
func TestTailLossScenarios(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		probes, fast, timeouts, segs int
	}{
		{"tail-loss-probe", 1, 1, 0, 27},
		{"recovery-stall", 0, 1, 1, 27},
		{"recovery-back-to-back", 1, 2, 0, 27},
		{"timeout-below-recover", 2, 0, 2, 25},
	} {
		sc, _ := ScenarioByName(tc.name)
		res := Run(sc, nil)
		st := res.Stats[A]
		if st.TailProbes != tc.probes || st.FastRexmits != tc.fast || st.Rexmits != tc.timeouts || st.SegsSent != tc.segs {
			t.Errorf("%s: probes %d, fast %d, time-outs %d, segments %d; want %d, %d, %d, %d", tc.name,
				st.TailProbes, st.FastRexmits, st.Rexmits, st.SegsSent, tc.probes, tc.fast, tc.timeouts, tc.segs)
		}
		if res.Final != [2]tcp.State{tcp.Closed, tcp.Closed} || len(res.Violations) != 0 {
			t.Errorf("%s: final %v, violations %v", tc.name, res.Final, res.Violations)
		}
	}
}

// TestExploreSmoke is the CI exploration gate: a fixed seed and budget must
// reach at least 90%% edge coverage, find nothing on the healthy engine,
// and be bit-deterministic across runs.
func TestExploreSmoke(t *testing.T) {
	run := func() Report { return New(7, 80).Explore() }
	rep := run()
	if rep.Coverage < 0.9 {
		t.Errorf("coverage %.2f (%d/%d), want >= 0.90; missing %v",
			rep.Coverage, rep.Covered, rep.Total, rep.Missing)
	}
	if len(rep.Reproducers) != 0 {
		t.Errorf("healthy engine produced %d reproducers: %+v",
			len(rep.Reproducers), rep.Reproducers)
	}
	rep2 := run()
	if !reflect.DeepEqual(rep, rep2) {
		t.Errorf("exploration not deterministic:\n%+v\nvs\n%+v", rep, rep2)
	}
}

// TestRunDeterministic: the harness itself consumes no randomness.
func TestRunDeterministic(t *testing.T) {
	sc, _ := ScenarioByName("retransmit-recovery")
	r1 := Run(sc, []Fault{{Kind: FaultDrop, At: 4}})
	r2 := Run(sc, []Fault{{Kind: FaultDrop, At: 4}})
	if r1.Steps != r2.Steps || r1.Frames != r2.Frames ||
		!reflect.DeepEqual(r1.Violations, r2.Violations) ||
		r1.Coverage.Count() != r2.Coverage.Count() {
		t.Errorf("identical schedules diverged: %+v vs %+v", r1, r2)
	}
}

// TestInjectedBugCaughtAndShrunk seeds the engine with a deliberate
// protocol bug (skipping TIME_WAIT entirely) and checks the full loop: the
// explorer catches it, delta-debugs the schedule to at most 3 fault points,
// and the emitted reproducer replays deterministically.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	tcp.TestHookSkipTimeWait = true
	defer func() { tcp.TestHookSkipTimeWait = false }()

	rep := New(7, 40).Explore()
	if len(rep.Reproducers) == 0 {
		t.Fatal("explorer did not catch the injected skip-TIME_WAIT bug")
	}
	r := rep.Reproducers[0]
	if len(r.Faults) > 3 {
		t.Errorf("reproducer not shrunk: %d fault points (want <= 3): %+v",
			len(r.Faults), r.Faults)
	}
	// The bug's signature: a segment-triggered transition to CLOSED from a
	// state that should have entered TIME_WAIT.
	if r.Violation.Edge == nil || r.Violation.Edge.To != tcp.Closed ||
		r.Violation.Edge.Via != tcp.TrigSegment {
		t.Errorf("unexpected violation signature: %+v", r.Violation)
	}
	if r.Violation.Edge != nil &&
		r.Violation.Edge.From != tcp.FinWait2 && r.Violation.Edge.From != tcp.Closing {
		t.Errorf("violation edge from %v, want FIN_WAIT_2 or CLOSING", r.Violation.Edge.From)
	}

	// The reproducer must survive a JSON round trip (it is the replay
	// artifact cmd/ulexplore writes) and replay to the same violation.
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal reproducer: %v", err)
	}
	var back Reproducer
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal reproducer: %v", err)
	}
	res1, err := Replay(back)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	res2, _ := Replay(back)
	if !reflect.DeepEqual(res1.Violations, res2.Violations) {
		t.Errorf("replay not deterministic:\n%v\nvs\n%v", res1.Violations, res2.Violations)
	}
}

// TestShrinkRemovesIrrelevantFaults: when the violation reproduces without
// any of the extra faults, shrinking must strip the schedule to nothing.
func TestShrinkRemovesIrrelevantFaults(t *testing.T) {
	tcp.TestHookSkipTimeWait = true
	defer func() { tcp.TestHookSkipTimeWait = false }()

	sc, _ := ScenarioByName("handshake-close")
	noisy := []Fault{
		{Kind: FaultDrop, At: 30},
		{Kind: FaultDrop, At: 31},
		{Kind: FaultDrop, At: 32},
	}
	res := Run(sc, noisy)
	if len(res.Violations) == 0 {
		t.Fatal("injected bug not visible in handshake-close")
	}
	min := Shrink(sc, noisy, res.Violations[0].Rule)
	if len(min) != 0 {
		t.Errorf("shrink kept %d irrelevant faults: %+v", len(min), min)
	}
}

// TestReplayUnknownScenario: corrupted artifacts fail loudly.
func TestReplayUnknownScenario(t *testing.T) {
	if _, err := Replay(Reproducer{Scenario: "no-such"}); err == nil {
		t.Error("expected error for unknown scenario")
	}
}

// TestTimeWaitRulePoints: the two scenarios that drive TIME_WAIT's
// rule reach what they are for, with no violation: a FIN retransmitted into
// TIME_WAIT is answered, so its sender closes on the answer and TIME_WAIT
// ends by its timer; a SYN that reuses the tuple inside its window resets
// it.
func TestTimeWaitRulePoints(t *testing.T) {
	for name, want := range map[string][]conform.Edge{
		"timewait-late-fin": {
			{From: tcp.LastAck, To: tcp.Closed, Via: tcp.TrigSegment},
			{From: tcp.TimeWait, To: tcp.Closed, Via: tcp.TrigTimer},
		},
		"timewait-syn-reuse": {
			{From: tcp.TimeWait, To: tcp.Closed, Via: tcp.TrigReset},
		},
	} {
		sc, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("no scenario %s", name)
		}
		res := Run(sc, nil)
		for _, v := range res.Violations {
			t.Errorf("%s: %v", name, v)
		}
		missing := res.Coverage.Missing()
		for _, e := range want {
			if slices.Contains(missing, e) {
				t.Errorf("%s: edge %v not taken", name, e)
			}
		}
		if res.Final != [2]tcp.State{tcp.Closed, tcp.Closed} {
			t.Errorf("%s: final states %v, want both CLOSED", name, res.Final)
		}
	}
}
