package experiments

import (
	"testing"
	"time"
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
	for _, sys := range Systems {
		for _, net := range []NetSel{NetEthernet, NetAN1} {
			if sys.Org == OrgMachUX && net == NetAN1 {
				continue
			}
			for _, up := range []int{512, 4096} {
				c := Table2CellFor(sys.Org, sys.Label, net, up, nil)
				if c.Err != nil {
					t.Errorf("%s/%v/%d: %v", c.System, c.Net, c.UserPacket, c.Err)
					continue
				}
				t.Logf("%-26s %-12v %5d: %6.2f Mb/s", c.System, c.Net, c.UserPacket, c.Mbps)
			}
		}
	}
}

func TestTable3Smoke(t *testing.T) {
	for _, sys := range Systems {
		c := Table3CellFor(sys.Org, sys.Label, NetEthernet, 1, nil)
		if c.Err != nil {
			t.Errorf("%s: %v", c.System, c.Err)
			continue
		}
		t.Logf("%-26s 1B RTT: %v", c.System, c.RTT)
	}
}

func TestTable4Smoke(t *testing.T) {
	for _, c := range Table4(nil) {
		if c.Err != nil {
			t.Errorf("%s/%v: %v", c.System, c.Net, c.Err)
			continue
		}
		t.Logf("%-26s %-12v setup: %v", c.System, c.Net, c.Setup)
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
