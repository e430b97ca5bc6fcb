package experiments

import (
	"testing"
	"time"

	"ulp"
)

// TestCalibrationShapes pins the paper's qualitative findings: orderings,
// crossovers, and magnitude bands. It is the regression net for the cost
// model — EXPERIMENTS.md records the precise paper-vs-simulated values.
func TestCalibrationShapes(t *testing.T) {
	cell := func(org ulp.Org, net ulp.Net, up int) float64 {
		c := Table2CellFor(org, net, up, nil)
		if c.Err != nil {
			t.Fatalf("cell %v/%v/%d: %v", org, net, up, c.Err)
		}
		return c.Mbps
	}

	t.Run("Table2/UltrixEthernetPlateau", func(t *testing.T) {
		small := cell(ulp.OrgInKernel, ulp.Ethernet, 512)
		large := cell(ulp.OrgInKernel, ulp.Ethernet, 4096)
		if large <= small {
			t.Errorf("throughput must grow with user packet size: %0.1f -> %0.1f", small, large)
		}
		if large < 6.5 || large > 9.8 {
			t.Errorf("Ultrix Ethernet plateau %0.1f Mb/s outside [6.5, 9.8] (paper 7.6)", large)
		}
	})

	t.Run("Table2/MachUXWorstOnEthernet", func(t *testing.T) {
		for _, up := range []int{512, 4096} {
			ux := cell(ulp.OrgSingleServer, ulp.Ethernet, up)
			ultrix := cell(ulp.OrgInKernel, ulp.Ethernet, up)
			ours := cell(ulp.OrgUserLib, ulp.Ethernet, up)
			if ux >= ultrix || ux >= ours {
				t.Errorf("size %d: Mach/UX (%.1f) must trail Ultrix (%.1f) and ours (%.1f)", up, ux, ultrix, ours)
			}
			// The paper's headline: ours is at least ~40% faster than the
			// single-server organization.
			if ours < 1.35*ux {
				t.Errorf("size %d: ours (%.1f) should beat Mach/UX (%.1f) by >35%%", up, ours, ux)
			}
		}
	})

	t.Run("Table2/AN1SmallPacketCrossover", func(t *testing.T) {
		ours := cell(ulp.OrgUserLib, ulp.AN1, 512)
		ultrix := cell(ulp.OrgInKernel, ulp.AN1, 512)
		if ours <= ultrix {
			t.Errorf("the zero-copy buffer organization must win at 512B on AN1: ours %.1f vs Ultrix %.1f (paper 6.7 vs 4.8)", ours, ultrix)
		}
	})

	t.Run("Table2/AN1LargePacketBand", func(t *testing.T) {
		ultrix := cell(ulp.OrgInKernel, ulp.AN1, 4096)
		if ultrix < 9 || ultrix > 15 {
			t.Errorf("Ultrix AN1 at 4096 = %.1f Mb/s, outside [9, 15] (paper 11.9)", ultrix)
		}
	})

	rtt := func(org ulp.Org, net ulp.Net, size int) time.Duration {
		c := Table3CellFor(org, net, size, nil)
		if c.Err != nil {
			t.Fatalf("rtt %v/%v/%d: %v", org, net, size, c.Err)
		}
		return c.RTT
	}

	t.Run("Table3/LatencyOrdering", func(t *testing.T) {
		for _, size := range LatencySizes {
			ultrix := rtt(ulp.OrgInKernel, ulp.Ethernet, size)
			ours := rtt(ulp.OrgUserLib, ulp.Ethernet, size)
			ux := rtt(ulp.OrgSingleServer, ulp.Ethernet, size)
			if !(ultrix < ours && ours < ux) {
				t.Errorf("size %d: want Ultrix < ours < Mach/UX, got %v / %v / %v", size, ultrix, ours, ux)
			}
		}
	})

	t.Run("Table3/Magnitudes", func(t *testing.T) {
		u := rtt(ulp.OrgInKernel, ulp.Ethernet, 1)
		if u < 1200*time.Microsecond || u > 2600*time.Microsecond {
			t.Errorf("Ultrix 1B RTT %v outside [1.2ms, 2.6ms] (paper 1.6ms)", u)
		}
		o := rtt(ulp.OrgUserLib, ulp.Ethernet, 1)
		if o < 2*time.Millisecond || o > 4*time.Millisecond {
			t.Errorf("ours 1B RTT %v outside [2ms, 4ms] (paper 2.8ms)", o)
		}
		x := rtt(ulp.OrgSingleServer, ulp.Ethernet, 1)
		if x < 5*time.Millisecond || x > 10*time.Millisecond {
			t.Errorf("Mach/UX 1B RTT %v outside [5ms, 10ms] (paper 7.8ms)", x)
		}
	})

	t.Run("Table3/AN1FasterThanEthernetAtSize", func(t *testing.T) {
		if rtt(ulp.OrgUserLib, ulp.AN1, 1460) >= rtt(ulp.OrgUserLib, ulp.Ethernet, 1460) {
			t.Error("AN1 should beat Ethernet for 1460B exchanges")
		}
	})

	t.Run("Table4/SetupOrderingAndBands", func(t *testing.T) {
		setup := func(org ulp.Org, net ulp.Net) time.Duration {
			c := Table4CellFor(org, net, nil)
			if c.Err != nil {
				t.Fatalf("setup: %v", c.Err)
			}
			return c.Setup
		}
		ultrix := setup(ulp.OrgInKernel, ulp.Ethernet)
		ux := setup(ulp.OrgSingleServer, ulp.Ethernet)
		ours := setup(ulp.OrgUserLib, ulp.Ethernet)
		oursAN1 := setup(ulp.OrgUserLib, ulp.AN1)
		if !(ultrix < ux && ux < ours) {
			t.Errorf("want Ultrix < Mach/UX < ours, got %v / %v / %v", ultrix, ux, ours)
		}
		if ours < 9*time.Millisecond || ours > 14*time.Millisecond {
			t.Errorf("ours setup %v outside [9ms, 14ms] (paper 11.9ms)", ours)
		}
		if oursAN1 <= ours {
			t.Errorf("AN1 setup (%v) should exceed Ethernet (%v): BQI machinery", oursAN1, ours)
		}
	})

	t.Run("Table5/DemuxParity", func(t *testing.T) {
		r, err := Table5(nil)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := 40*time.Microsecond, 65*time.Microsecond
		if r.SoftwareDemux < lo || r.SoftwareDemux > hi {
			t.Errorf("software demux %v outside [%v, %v] (paper 52µs)", r.SoftwareDemux, lo, hi)
		}
		if r.HardwareDemux < lo || r.HardwareDemux > hi {
			t.Errorf("hardware demux %v outside [%v, %v] (paper 50µs)", r.HardwareDemux, lo, hi)
		}
		// The paper's conclusion: "there is no significant difference in
		// the timing."
		diff := r.SoftwareDemux - r.HardwareDemux
		if diff < 0 {
			diff = -diff
		}
		if diff > 15*time.Microsecond {
			t.Errorf("demux costs should be comparable, differ by %v", diff)
		}
	})

	t.Run("Table4/BreakdownSumsToTotal", func(t *testing.T) {
		rows := Table4Breakdown(nil)
		if len(rows) != 5 {
			t.Fatalf("breakdown has %d rows", len(rows))
		}
		var sum time.Duration
		for _, r := range rows {
			if r.Cost <= 0 {
				t.Errorf("component %q non-positive: %v", r.Component, r.Cost)
			}
			sum += r.Cost
		}
		total := Table4CellFor(ulp.OrgUserLib, ulp.Ethernet, nil).Setup
		if sum != total {
			t.Errorf("breakdown sum %v != measured total %v", sum, total)
		}
	})
}

// TestDeterministicExperiments pins reproducibility: identical runs produce
// identical measurements.
func TestDeterministicExperiments(t *testing.T) {
	a := Table2CellFor(ulp.OrgUserLib, ulp.AN1, 512, nil)
	b := Table2CellFor(ulp.OrgUserLib, ulp.AN1, 512, nil)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if a.Mbps != b.Mbps {
		t.Fatalf("nondeterministic: %.6f vs %.6f", a.Mbps, b.Mbps)
	}
	r1, err1 := Table1(nil)
	r2, err2 := Table1(nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.MechanismMbps != r2.MechanismMbps {
		t.Fatal("Table1 nondeterministic")
	}
}
