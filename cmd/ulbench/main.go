// Command ulbench regenerates the evaluation of "Implementing Network
// Protocols at User Level" (Thekkath, Nguyen, Moy, Lazowska; SIGCOMM 1993)
// on the simulated testbed and renders each table in the paper's layout,
// side by side with the paper's published numbers.
//
// Usage:
//
//	ulbench            # all tables
//	ulbench -table 2   # one table
//	ulbench -ablations # the extension/ablation experiments
//	ulbench -orgs      # print the Figure 1 organization map
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ulp"
	"ulp/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "render only this table (1-5); 0 = all")
	ablations := flag.Bool("ablations", false, "run the ablation experiments")
	orgs := flag.Bool("orgs", false, "print the organization map (Figure 1)")
	stats := flag.Bool("stats", false, "run a 1 MB transfer per organization and dump per-layer counters")
	churn := flag.Bool("churn", false, "run the connection-churn experiment")
	churnConns := flag.Int("churn-conns", 1000, "churn: total connection setups")
	churnClients := flag.Int("churn-clients", 4, "churn: number of client hosts")
	churnWorkers := flag.Int("churn-workers", 8, "churn: concurrent connect loops per client")
	shards := flag.Int("shards", 0, "churn: federate each host's registry into N shards (0/1 = single registry)")
	degrade := flag.Bool("degrade", false, "run the degradation experiment (bursty loss, link flaps, bufferbloat)")
	degradeBytes := flag.Int("degrade-bytes", 256<<10, "degrade: payload bytes per transfer")
	flag.Parse()

	if *degrade {
		runDegrade(os.Stdout, *degradeBytes)
		return
	}
	if *churn {
		runChurn(os.Stdout, *churnConns, *churnClients, *churnWorkers, *shards)
		return
	}

	if *orgs {
		printOrgs()
		return
	}
	if *stats {
		runStats(os.Stdout)
		return
	}
	if *ablations {
		runAblations(os.Stdout)
		return
	}
	renderTables(os.Stdout, *table)
}

// renderTables writes the paper's tables (all five, or just the one named)
// to w. The default output is pinned byte for byte by testdata/tables.golden.
func renderTables(w io.Writer, only int) {
	for n, table := range []func(io.Writer){table1, table2, table3, table4, table5} {
		if only == 0 || only == n+1 {
			table(w)
		}
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}

func table1(w io.Writer) {
	header(w, "Table 1: Impact of Our Mechanisms on Throughput (Ethernet, max-sized packets)")
	r, err := experiments.Table1(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		return
	}
	fmt.Fprintf(w, "%-44s %10s %10s\n", "Configuration", "Mb/s", "% of raw")
	fmt.Fprintf(w, "%-44s %10.2f %10.1f\n", "Standalone (link saturation)", r.StandaloneMbps, 100.0)
	fmt.Fprintf(w, "%-44s %10.2f %10.1f\n", "With user-level mechanisms", r.MechanismMbps, r.Percent)
	fmt.Fprintf(w, "(%d packets, %d notifications; per-packet CPU: sender %v, receiver %v —\n"+
		" the mechanisms pipeline completely under the 1.2 ms wire time)\n",
		r.Packets, r.Notifications, r.SenderCPUPerPkt, r.ReceiverCPUPerPkt)
	fmt.Fprintln(w, "Paper: \"our mechanisms introduce only very modest overhead\".")
}

func table2(w io.Writer) {
	header(w, "Table 2: Throughput Measurements (Mb/s), user packet sizes 512/1024/2048/4096")
	fmt.Fprintf(w, "%-27s %-13s %26s   %26s\n", "System", "Network", "simulated", "paper")
	for i, cells := range experiments.Table2(nil) {
		r := experiments.Grid[i]
		fmt.Fprintf(w, "%-27s %-13s ", r.System, r.Network)
		for _, c := range cells {
			cell(w, c.Mbps, c.Err)
		}
		paper(w, r.PaperMbps[:])
	}
}

func table3(w io.Writer) {
	header(w, "Table 3: Round Trip Latencies (ms), payload sizes 1/512/1460")
	fmt.Fprintf(w, "%-27s %-13s %20s   %20s\n", "System", "Network", "simulated", "paper")
	for _, r := range experiments.Grid {
		fmt.Fprintf(w, "%-27s %-13s ", r.System, r.Network)
		for _, size := range experiments.LatencySizes {
			c := experiments.Table3CellFor(r.Org, r.Net, size, nil)
			cell(w, ms(c.RTT), c.Err)
		}
		paper(w, r.PaperRTT[:])
	}
}

// cell prints one simulated grid cell, or ERR for one whose run failed.
func cell(w io.Writer, v float64, err error) {
	if err != nil {
		fmt.Fprintf(w, "%6s ", "ERR")
		return
	}
	fmt.Fprintf(w, "%6.1f ", v)
}

// paper ends a grid row with the paper's values.
func paper(w io.Writer, values []float64) {
	fmt.Fprint(w, "  ")
	for _, v := range values {
		fmt.Fprintf(w, "%6.1f ", v)
	}
	fmt.Fprintln(w)
}

// ms renders a duration in milliseconds, truncated to the microsecond.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func table4(w io.Writer) {
	header(w, "Table 4: Connection Setup Cost (ms)")
	fmt.Fprintf(w, "%-27s %-13s %10s %10s\n", "System", "Network", "simulated", "paper")
	var paperTotal float64 // the paper's ours/Ethernet cell, which the breakdown splits
	for i, c := range experiments.Table4(nil) {
		r := experiments.Grid[i]
		if r.Org == ulp.OrgUserLib && r.Net == ulp.Ethernet {
			paperTotal = r.PaperSetup
		}
		if c.Err != nil {
			fmt.Fprintf(w, "%-27s %-13s %10s\n", r.System, r.Network, "ERR")
			continue
		}
		fmt.Fprintf(w, "%-27s %-13s %10.1f %10.1f\n", r.System, r.Network, ms(c.Setup), r.PaperSetup)
	}
	fmt.Fprintln(w, "\nBreakdown of the user-level library's Ethernet setup cost:")
	var sum time.Duration
	for _, r := range experiments.Table4Breakdown(nil) {
		fmt.Fprintf(w, "  %-56s %6.1f ms   (paper %.1f ms)\n", r.Component, ms(r.Cost), r.Paper)
		sum += r.Cost
	}
	fmt.Fprintf(w, "  %-56s %6.1f ms   (paper %.1f ms)\n", "total", ms(sum), paperTotal)
}

func table5(w io.Writer) {
	header(w, "Table 5: Hardware/Software Demultiplexing Tradeoffs (µs per packet)")
	r, err := experiments.Table5(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "table5:", err)
		return
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }
	fmt.Fprintf(w, "%-34s %10s %10s\n", "Network Interface", "simulated", "paper")
	fmt.Fprintf(w, "%-34s %10.0f %10.0f\n", "Lance Ethernet (Software)", us(r.SoftwareDemux), experiments.PaperSoftwareDemux)
	fmt.Fprintf(w, "%-34s %10.0f %10.0f\n", "AN1 (Hardware BQI)", us(r.HardwareDemux), experiments.PaperHardwareDemux)
}

// runAblations renders the extension and ablation experiments. A failed
// ablation keeps its header, drops its row and reports why on stderr.
func runAblations(w io.Writer) {
	fail := func(name string, err error) bool {
		if err != nil {
			fmt.Fprintf(os.Stderr, "ablation %s: %v\n", name, err)
		}
		return err != nil
	}
	header(w, "Ablation: notification batching")
	if r := experiments.AblationBatching(nil); !fail("batching", r.Err) {
		fmt.Fprintf(w, "  batched: %.2f Mb/s    per-packet notifications: %.2f Mb/s\n", r.BatchedMbps, r.UnbatchedMbps)
	}
	header(w, "Ablation: AN1 64 KB frames (lifting the 1500-byte encapsulation)")
	if r := experiments.AblationAN1MTU(nil); !fail("an1-mtu", r.Err) {
		fmt.Fprintf(w, "  1500-byte encapsulation: %.2f Mb/s, %d rx drops    64 KB frames: %.2f Mb/s, %d rx drops\n",
			r.Encap1500.Mbps, r.Encap1500.Dropped, r.Jumbo64K.Mbps, r.Jumbo64K.Dropped)
	}
	header(w, "Ablation: demultiplexing architecture (per matching packet)")
	r := experiments.AblationFilter(nil)
	fmt.Fprintf(w, "  CSPF stack machine: %d instructions, %v\n", r.CSPFInstrs, r.CSPFTime)
	fmt.Fprintf(w, "  BPF register machine: %d instructions, %v\n", r.BPFInstrs, r.BPFTime)
	fmt.Fprintf(w, "  synthesized native predicate: %v\n", r.NativeTime)
	header(w, "Ablation: application-specific variant (two-write requests)")
	if a := experiments.AblationAppSpecific(nil); !fail("app-specific", a.Err) {
		fmt.Fprintf(w, "  stock protocol: %v/op    NoDelay variant: %v/op\n", a.StockPerOp, a.NoDelayPerOp)
	}
	header(w, "Ablation: registry bypass for connectionless/RPC traffic (§5)")
	if rr := experiments.AblationRPC(nil); !fail("rpc", rr.Err) {
		fmt.Fprintf(w, "  every datagram via registry: %v/op    bypassed after binding: %v/op\n",
			rr.ViaServerPerOp, rr.BypassedPerOp)
	}
	header(w, "Ablation: checksum elision on 64 KB AN1 frames")
	if c := experiments.AblationChecksum(nil); !fail("checksum", c.Err) {
		fmt.Fprintf(w, "  with software checksum: %.2f Mb/s    elided: %.2f Mb/s\n", c.WithMbps, c.WithoutMbps)
	}
}

// runStats renders the per-layer counters of a 1 MB Ethernet transfer under
// each organization.
func runStats(w io.Writer) {
	for _, r := range experiments.Grid {
		if r.Net != ulp.Ethernet {
			continue
		}
		header(w, fmt.Sprintf("Per-layer counters: %s (Ethernet, 1 MB bulk transfer)", r.System))
		report, err := experiments.StatsReport(r.Org)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stats:", err)
			continue
		}
		fmt.Fprint(w, report)
	}
}

func printOrgs() {
	fmt.Print(`Figure 1 — Alternative Organizations of Protocols, as realized here:

  In-Kernel (e.g., UNIX/Ultrix)          internal/stacks  (NewInKernel)
      protocol + device management in the kernel; socket calls trap.

  Single Server (e.g., Mach 3.0 + UX)    internal/stacks  (NewSingleServer)
      protocol suite in one trusted server with a mapped device; every
      socket call is a Mach IPC round trip.

  Dedicated Servers (rare case)          discussed in DESIGN.md; the
      per-protocol-server organization the paper rejects for its extra
      domain crossings.

  User-Level Library (proposed)          internal/core + internal/registry
      + internal/netio: protocol library in the application, registry
      server for setup, network I/O module for protected access. The
      server is bypassed on the data path (Figure 2).
`)
}

// runChurn renders the connection-churn experiment: the setup/teardown
// workload on the shared Ethernet (steered demux, timing wheels).
// With -shards N a second row federates each host's registry into N
// pinned-CPU shards, the sharded control plane that parallelizes setup.
func runChurn(w io.Writer, conns, clients, workers, shards int) {
	header(w, fmt.Sprintf("Connection churn: %d setups, %d clients x %d workers", conns, clients, workers))
	fmt.Fprintf(w, "%-10s %10s %10s %10s %12s %12s %10s %14s\n",
		"Config", "p50", "p99", "p999", "setups/vsec", "virtual", "wall", "events/wsec")
	rows := []int{0}
	if shards >= 2 {
		rows = append(rows, shards)
	}
	for _, n := range rows {
		name := "fast"
		if n > 0 {
			name = fmt.Sprintf("sharded%d", n)
		}
		r := experiments.Churn(experiments.ChurnConfig{
			Conns: conns, Clients: clients, Workers: workers, Shards: n,
		})
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "churn (%s): %v\n", name, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-10s %10v %10v %10v %12.1f %12v %10v %14.0f\n",
			name, r.P50.Round(time.Millisecond), r.P99.Round(time.Millisecond),
			r.P999.Round(time.Millisecond), r.SetupsPerVSec,
			r.Virtual.Round(time.Millisecond), r.Wall.Round(time.Millisecond),
			r.EventsPerWSec)
	}
	fmt.Fprintln(w, "(virtual percentiles are dominated by the modeled 1993 registry setup cost;")
	fmt.Fprintln(w, " the fast path's win is wall-clock events/sec and flat per-conn demux/timer cost;")
	fmt.Fprintln(w, " sharding parallelizes the registry CPU itself, lifting setups/vsec)")
}

// runDegrade renders the degradation experiment (PR 10): a fixed transfer
// through the time-scripted link-condition layer, sweeping loss-burst
// length, flap period and bufferbloat queue depth. "gave-up" marks rows
// where a side abandoned the connection (RFC 1122 R2 / keepalive) and the
// blocked caller saw a crisp timeout instead of a hang.
func runDegrade(w io.Writer, bytes int) {
	header(w, fmt.Sprintf("End-to-end degradation: %d KiB transfer, user-level stack, AN1", bytes>>10))
	fmt.Fprintf(w, "%-12s %-18s %-9s %9s %10s %8s %6s %4s %8s %8s %8s\n",
		"Profile", "Knob", "Outcome", "Mb/s", "virtual", "rexmit", "fast", "R1", "give-ups", "drops", "q-drops")
	for _, r := range experiments.Degrade(experiments.DegradeConfig{Bytes: bytes}) {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "degrade (%s/%s): %v\n", r.Profile, r.Knob, r.Err)
			continue
		}
		outcome := "ok"
		if !r.Completed {
			outcome = "gave-up"
		}
		fmt.Fprintf(w, "%-12s %-18s %-9s %9.2f %10v %8d %6d %4d %8d %8d %8d\n",
			r.Profile, r.Knob, outcome, r.Goodput, r.Virtual.Round(time.Millisecond),
			r.Rexmits, r.FastRexmits, r.R1, r.GiveUps, r.CondDrops, r.QueueDrops)
	}
	fmt.Fprintln(w, "(goodput is delivered payload over virtual time; the partition row must")
	fmt.Fprintln(w, " end in a give-up — a hang there is a bug, not a degradation)")
}
