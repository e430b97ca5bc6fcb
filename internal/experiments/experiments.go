// Package experiments reproduces the paper's evaluation (§4): one driver
// per table, each building a fresh two-workstation ulp.World and measuring
// the same quantity the paper reports. Grid lists the measured rows with the
// paper's published values. cmd/ulbench renders them as text tables;
// bench_test.go wraps them as Go benchmarks. EXPERIMENTS.md records
// paper-versus-simulated values.
package experiments

import (
	"fmt"
	"time"

	"ulp"
	"ulp/internal/kern"
	"ulp/internal/stacks"
)

// Row is one measured (system, network) pair of Tables 2–4, with the
// paper's published values for it.
type Row struct {
	System, Network string // as the paper labels them
	Org             ulp.Org
	Net             ulp.Net

	PaperMbps  [4]float64 // Table 2, Mb/s at UserPacketSizes
	PaperRTT   [3]float64 // Table 3, ms at LatencySizes
	PaperSetup float64    // Table 4, ms
}

// Grid is every measured row, in the paper's presentation order. Mach/UX
// has no AN1 row: "standard Mach does not currently support a mapped AN1
// driver ... we therefore do not report Mach/UX performance on AN1".
var Grid = []Row{
	{System: "Ultrix 4.2A", Network: "Ethernet", Org: ulp.OrgInKernel, Net: ulp.Ethernet,
		PaperMbps: [4]float64{5.8, 7.6, 7.6, 7.6}, PaperRTT: [3]float64{1.6, 3.5, 6.2}, PaperSetup: 2.6},
	{System: "Ultrix 4.2A", Network: "DEC SRC AN1", Org: ulp.OrgInKernel, Net: ulp.AN1,
		PaperMbps: [4]float64{4.8, 10.2, 11.9, 11.9}, PaperRTT: [3]float64{1.8, 2.7, 3.2}, PaperSetup: 2.9},
	{System: "Mach 3.0/UX (mapped)", Network: "Ethernet", Org: ulp.OrgSingleServer, Net: ulp.Ethernet,
		PaperMbps: [4]float64{2.1, 2.5, 3.2, 3.5}, PaperRTT: [3]float64{7.8, 10.8, 16.0}, PaperSetup: 6.8},
	{System: "Our (Mach) Implementation", Network: "Ethernet", Org: ulp.OrgUserLib, Net: ulp.Ethernet,
		PaperMbps: [4]float64{4.3, 4.6, 4.8, 5.0}, PaperRTT: [3]float64{2.8, 5.2, 9.9}, PaperSetup: 11.9},
	{System: "Our (Mach) Implementation", Network: "DEC SRC AN1", Org: ulp.OrgUserLib, Net: ulp.AN1,
		PaperMbps: [4]float64{6.7, 8.1, 9.4, 11.9}, PaperRTT: [3]float64{2.7, 3.4, 4.7}, PaperSetup: 12.3},
}

// mbps converts a payload byte count over a duration to megabits/second.
func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e6
}

// bulkSend drives a one-way bulk transfer of total bytes written in
// userPacket-sized application writes from the client app to a sink server,
// returning achieved goodput measured at the receiver between the first and
// last payload byte (excluding connection setup, as the paper does).
func bulkSend(w *ulp.World, total, userPacket int, opts stacks.Options, budget time.Duration) (float64, error) {
	// Steady-state measurement: the first warmup bytes (slow start and the
	// initial delayed-ACK stall) are excluded from the timed span, as a
	// long-running testbed measurement would exclude them.
	const warmup = 32 << 10
	var firstByte, lastByte time.Duration
	received := 0
	err := exchange{opts: opts, budget: budget, serverEnds: true,
		serve: func(t *kern.Thread, l stacks.Listener) error {
			c, err := l.Accept(t)
			if err != nil {
				return err
			}
			buf := make([]byte, 65536)
			for received < total {
				n, err := c.Read(t, buf)
				if err != nil {
					return err
				}
				if n == 0 {
					return fmt.Errorf("experiments: transfer incomplete (%d/%d bytes)", received, total)
				}
				received += n
				if received <= warmup {
					firstByte = time.Duration(t.Now())
				}
				lastByte = time.Duration(t.Now())
			}
			return nil
		},
		client: func(t *kern.Thread, dial func() (stacks.Conn, error)) error {
			c, err := dial()
			if err != nil {
				return err
			}
			data := make([]byte, userPacket)
			for sent := 0; sent < total; sent += userPacket {
				if _, err := c.Write(t, data[:min(userPacket, total-sent)]); err != nil {
					return err
				}
			}
			return nil
		},
	}.run(w)
	if err != nil {
		return 0, err
	}
	return mbps(int64(received-warmup), lastByte-firstByte), nil
}

// pingPong measures average round-trip time for size-byte exchanges after a
// warmup, as Table 3 does ("the first application sends data to the second,
// which in turn sends the same amount of data back").
func pingPong(w *ulp.World, size, iters int, opts stacks.Options, budget time.Duration) (time.Duration, error) {
	var avg time.Duration
	err := exchange{opts: opts, budget: budget,
		serve: func(t *kern.Thread, l stacks.Listener) error {
			c, err := l.Accept(t)
			if err != nil {
				return err
			}
			buf := make([]byte, size)
			for readFull(t, c, buf) == nil {
				if _, err := c.Write(t, buf); err != nil {
					break
				}
			}
			return nil
		},
		client: func(t *kern.Thread, dial func() (stacks.Conn, error)) error {
			c, err := dial()
			if err != nil {
				return err
			}
			buf := make([]byte, size)
			const warmup = 4
			var start time.Duration
			for i := 0; i < warmup+iters; i++ {
				if i == warmup {
					start = time.Duration(t.Now())
				}
				if _, err := c.Write(t, buf); err != nil {
					return err
				}
				if err := readFull(t, c, buf); err != nil {
					return err
				}
			}
			avg = (time.Duration(t.Now()) - start) / time.Duration(iters)
			return nil
		},
	}.run(w)
	return avg, err
}
