package experiments

import (
	"errors"
	"testing"
	"time"

	"ulp"
	"ulp/internal/kern"
	"ulp/internal/stacks"
)

func TestTable1Smoke(t *testing.T) {
	r, err := Table1(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("standalone %.2f Mb/s, mechanisms %.2f Mb/s (%.1f%%), %d notifications for %d packets",
		r.StandaloneMbps, r.MechanismMbps, r.Percent, r.Notifications, r.Packets)
	if r.Percent < 50 || r.Percent > 100.5 {
		t.Fatalf("mechanism throughput %.1f%% of standalone, outside plausible range", r.Percent)
	}
	// With the receiver keeping pace with the 10 Mb/s wire there is no
	// queueing, so each packet is individually notified; batching engages
	// under load (see TestAblationBatching).
	if r.Notifications > r.Packets {
		t.Fatalf("more notifications (%d) than packets (%d)", r.Notifications, r.Packets)
	}
}

func TestTable2Smoke(t *testing.T) {
	for _, r := range Grid {
		for _, up := range []int{512, 4096} {
			c := Table2CellFor(r.Org, r.Net, up, nil)
			if c.Err != nil {
				t.Errorf("%s/%s/%d: %v", r.System, r.Network, up, c.Err)
				continue
			}
			t.Logf("%-26s %-12s %5d: %6.2f Mb/s", r.System, r.Network, up, c.Mbps)
		}
	}
}

func TestTable3Smoke(t *testing.T) {
	for _, r := range Grid {
		c := Table3CellFor(r.Org, r.Net, 1, nil)
		if c.Err != nil {
			t.Errorf("%s/%s: %v", r.System, r.Network, c.Err)
			continue
		}
		t.Logf("%-26s %-12s 1B RTT: %v", r.System, r.Network, c.RTT)
	}
}

func TestTable4Smoke(t *testing.T) {
	for i, c := range Table4(nil) {
		r := Grid[i]
		if c.Err != nil {
			t.Errorf("%s/%s: %v", r.System, r.Network, c.Err)
			continue
		}
		t.Logf("%-26s %-12s setup: %v", r.System, r.Network, c.Setup)
	}
	var sum time.Duration
	for _, r := range Table4Breakdown(nil) {
		t.Logf("breakdown: %-50s %v", r.Component, r.Cost)
		sum += r.Cost
	}
	t.Logf("breakdown sum: %v", sum)
}

func TestTable5Smoke(t *testing.T) {
	r, err := Table5(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("software demux %v, hardware demux %v", r.SoftwareDemux, r.HardwareDemux)
}

func TestChurnSmoke(t *testing.T) {
	r := Churn(ChurnConfig{Conns: 200, Clients: 2, Workers: 4})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	t.Logf("%d conns, p50=%v p99=%v p999=%v, %.0f setups/vsec, %v virtual, %v wall",
		r.Conns, r.P50, r.P99, r.P999, r.SetupsPerVSec, r.Virtual, r.Wall)
	if r.P50 <= 0 || r.P999 < r.P50 {
		t.Fatalf("implausible percentiles p50=%v p999=%v", r.P50, r.P999)
	}
}

// TestExchangeUnfinishedIsAnError: a client/server run whose client never
// finishes within the budget reports an error instead of a zero result.
func TestExchangeUnfinishedIsAnError(t *testing.T) {
	w := newWorld(ulp.Config{Org: ulp.OrgUserLib, Net: ulp.Ethernet})
	err := exchange{budget: time.Second,
		serve: func(t *kern.Thread, l stacks.Listener) error {
			_, err := l.Accept(t)
			return err
		},
		client: func(t *kern.Thread, dial func() (stacks.Conn, error)) error {
			c, err := dial()
			if err != nil {
				return err
			}
			// The server never writes: this read waits out the budget.
			return readFull(t, c, make([]byte, 1))
		},
	}.run(w)
	if !errors.Is(err, errUnfinished) {
		t.Fatalf("stalled run returned %v, want %v", err, errUnfinished)
	}
}
