package ulp

// Conformance wiring: every scenario here runs with the RFC 793 checker
// (internal/conform) attached to the world's trace bus and must finish with
// zero violations. The checker is a pure observer, so these assertions ride
// along on existing scenarios without perturbing virtual time.

import (
	"testing"
	"time"

	"ulp/internal/chaos"
	"ulp/internal/conform"
	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/wire"
)

// enableConformance attaches a conformance checker to the world and
// registers a cleanup that fails the test on any violation.
func enableConformance(t *testing.T, w *World) *conform.Checker {
	t.Helper()
	ck := w.EnableConformance()
	t.Cleanup(func() {
		for _, v := range ck.Violations() {
			t.Errorf("conformance: %v", v)
		}
		if ck.Truncated() {
			t.Error("conformance: violation report truncated")
		}
	})
	return ck
}

// TestConformanceEchoAllOrganizations checks the clean-path traces of every
// organization and network against the RFC 793 relation.
func TestConformanceEchoAllOrganizations(t *testing.T) {
	for _, org := range []Org{OrgUserLib, OrgInKernel, OrgSingleServer} {
		for _, net := range []Net{Ethernet, AN1} {
			t.Run(org.String()+"/"+net.String(), func(t *testing.T) {
				w := NewWorld(Config{Org: org, Net: net})
				ck := enableConformance(t, w)
				echoTransfer(t, w, 30000, stacks.Options{}, 5*time.Minute)
				w.Run(5 * time.Minute) // let TIME_WAIT expire under the checker
				if ck.Coverage().Count() == 0 {
					t.Error("checker observed no transitions; tracing not wired")
				}
			})
		}
	}
}

// TestConformanceUnderLoss checks that retransmission, fast-retransmit and
// RTO behaviour under seeded loss/duplication stays conformant (Karn rule,
// backoff shift ranges, estimator arithmetic).
func TestConformanceUnderLoss(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Conditions: &wire.LinkConditions{Seed: 42, LossProb: 0.03, DupProb: 0.01},
	})
	enableConformance(t, w)
	echoTransfer(t, w, 20000, stacks.Options{}, 20*time.Minute)
	w.Run(5 * time.Minute)
}

// TestConformanceUnderCrash checks the crash-recovery path: an application
// killed mid-transfer, the registry resetting its peer. Abort edges and
// reset edges must all be legal transitions.
func TestConformanceUnderCrash(t *testing.T) {
	w := NewWorld(Config{
		Org: OrgUserLib, Net: Ethernet,
		Chaos: &chaos.FaultPlan{
			Seed:    7,
			Crashes: []chaos.CrashPoint{{Host: 1, App: "client", At: 80 * time.Millisecond}},
		},
	})
	enableConformance(t, w)
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
		for {
			if _, err := c.Write(th, pattern(512)); err != nil {
				return
			}
			th.Sleep(10 * time.Millisecond)
		}
	})
	w.RunUntil(time.Minute, func() bool { return srvDone })
	if !srvDone {
		t.Fatal("server never observed the crash reset")
	}
	w.Run(5 * time.Second)
}
