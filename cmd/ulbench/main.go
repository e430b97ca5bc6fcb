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
	zerocopy := flag.Bool("zerocopy", false, "deliver received frames by reference (refcounted zero-copy rings) in -stats and -churn")
	degrade := flag.Bool("degrade", false, "run the degradation experiment (bursty loss, link flaps, bufferbloat)")
	degradeBytes := flag.Int("degrade-bytes", 256<<10, "degrade: payload bytes per transfer")
	flag.Parse()

	if *degrade {
		runDegrade(os.Stdout, *degradeBytes)
		return
	}
	if *churn {
		runChurn(os.Stdout, *churnConns, *churnClients, *churnWorkers, *shards, *zerocopy)
		return
	}

	if *orgs {
		printOrgs()
		return
	}
	if *stats {
		runStats(*zerocopy)
		return
	}
	if *ablations {
		runAblations()
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

// paperT2 holds the published Table 2 values for side-by-side rendering.
var paperT2 = map[string]map[experiments.NetSel][4]float64{
	"Ultrix 4.2A": {
		experiments.NetEthernet: {5.8, 7.6, 7.6, 7.6},
		experiments.NetAN1:      {4.8, 10.2, 11.9, 11.9},
	},
	"Mach 3.0/UX (mapped)": {
		experiments.NetEthernet: {2.1, 2.5, 3.2, 3.5},
	},
	"Our (Mach) Implementation": {
		experiments.NetEthernet: {4.3, 4.6, 4.8, 5.0},
		experiments.NetAN1:      {6.7, 8.1, 9.4, 11.9},
	},
}

func table2(w io.Writer) {
	header(w, "Table 2: Throughput Measurements (Mb/s), user packet sizes 512/1024/2048/4096")
	cells := experiments.Table2(experiments.Table2Config{})
	fmt.Fprintf(w, "%-27s %-13s %26s   %26s\n", "System", "Network", "simulated", "paper")
	byKey := map[string][]experiments.Table2Cell{}
	var order []string
	for _, c := range cells {
		k := c.System + "|" + c.Net.String()
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], c)
	}
	for _, k := range order {
		row := byKey[k]
		fmt.Fprintf(w, "%-27s %-13v ", row[0].System, row[0].Net)
		for _, c := range row {
			if c.Err != nil {
				fmt.Fprintf(w, "%6s ", "ERR")
				continue
			}
			fmt.Fprintf(w, "%6.1f ", c.Mbps)
		}
		fmt.Fprint(w, "  ")
		if p, ok := paperT2[row[0].System][row[0].Net]; ok {
			for _, v := range p {
				fmt.Fprintf(w, "%6.1f ", v)
			}
		}
		fmt.Fprintln(w)
	}
}

var paperT3 = map[string]map[experiments.NetSel][3]float64{
	"Ultrix 4.2A": {
		experiments.NetEthernet: {1.6, 3.5, 6.2},
		experiments.NetAN1:      {1.8, 2.7, 3.2},
	},
	"Mach 3.0/UX (mapped)": {
		experiments.NetEthernet: {7.8, 10.8, 16.0},
	},
	"Our (Mach) Implementation": {
		experiments.NetEthernet: {2.8, 5.2, 9.9},
		experiments.NetAN1:      {2.7, 3.4, 4.7},
	},
}

func table3(w io.Writer) {
	header(w, "Table 3: Round Trip Latencies (ms), payload sizes 1/512/1460")
	fmt.Fprintf(w, "%-27s %-13s %20s   %20s\n", "System", "Network", "simulated", "paper")
	for _, sys := range experiments.Systems {
		for _, net := range []experiments.NetSel{experiments.NetEthernet, experiments.NetAN1} {
			if sys.Org == experiments.OrgMachUX && net == experiments.NetAN1 {
				continue
			}
			fmt.Fprintf(w, "%-27s %-13v ", sys.Label, net)
			for _, size := range experiments.LatencySizes {
				c := experiments.Table3CellFor(sys.Org, sys.Label, net, size, nil)
				if c.Err != nil {
					fmt.Fprintf(w, "%6s ", "ERR")
					continue
				}
				fmt.Fprintf(w, "%6.1f ", float64(c.RTT.Microseconds())/1000)
			}
			fmt.Fprint(w, "  ")
			if p, ok := paperT3[sys.Label][net]; ok {
				for _, v := range p {
					fmt.Fprintf(w, "%6.1f ", v)
				}
			}
			fmt.Fprintln(w)
		}
	}
}

var paperT4 = map[string]map[experiments.NetSel]float64{
	"Ultrix 4.2A": {
		experiments.NetEthernet: 2.6,
		experiments.NetAN1:      2.9,
	},
	"Mach 3.0/UX (mapped)": {
		experiments.NetEthernet: 6.8,
	},
	"Our (Mach) Implementation": {
		experiments.NetEthernet: 11.9,
		experiments.NetAN1:      12.3,
	},
}

func table4(w io.Writer) {
	header(w, "Table 4: Connection Setup Cost (ms)")
	fmt.Fprintf(w, "%-27s %-13s %10s %10s\n", "System", "Network", "simulated", "paper")
	for _, c := range experiments.Table4(nil) {
		if c.Err != nil {
			fmt.Fprintf(w, "%-27s %-13v %10s\n", c.System, c.Net, "ERR")
			continue
		}
		fmt.Fprintf(w, "%-27s %-13v %10.1f %10.1f\n",
			c.System, c.Net, float64(c.Setup.Microseconds())/1000, paperT4[c.System][c.Net])
	}
	fmt.Fprintln(w, "\nBreakdown of the user-level library's Ethernet setup cost:")
	paperBreakdown := []float64{4.6, 1.5, 3.4, 0.9, 1.4}
	var sum time.Duration
	for i, r := range experiments.Table4Breakdown(nil) {
		fmt.Fprintf(w, "  %-56s %6.1f ms   (paper %.1f ms)\n",
			r.Component, float64(r.Cost.Microseconds())/1000, paperBreakdown[i])
		sum += r.Cost
	}
	fmt.Fprintf(w, "  %-56s %6.1f ms   (paper 11.9 ms)\n", "total", float64(sum.Microseconds())/1000)
}

func table5(w io.Writer) {
	header(w, "Table 5: Hardware/Software Demultiplexing Tradeoffs (µs per packet)")
	r, err := experiments.Table5(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "table5:", err)
		return
	}
	fmt.Fprintf(w, "%-34s %10s %10s\n", "Network Interface", "simulated", "paper")
	fmt.Fprintf(w, "%-34s %10.0f %10.0f\n", "Lance Ethernet (Software)", float64(r.SoftwareDemux.Nanoseconds())/1000, 52.0)
	fmt.Fprintf(w, "%-34s %10.0f %10.0f\n", "AN1 (Hardware BQI)", float64(r.HardwareDemux.Nanoseconds())/1000, 50.0)
}

func runAblations() {
	header(os.Stdout, "Ablation: notification batching")
	if r := experiments.AblationBatching(nil); r.Err == nil {
		fmt.Printf("  batched: %.2f Mb/s    per-packet notifications: %.2f Mb/s\n", r.BatchedMbps, r.UnbatchedMbps)
	}
	header(os.Stdout, "Ablation: AN1 64 KB frames (lifting the 1500-byte encapsulation)")
	if r := experiments.AblationAN1MTU(nil); r.Err == nil {
		fmt.Printf("  1500-byte encapsulation: %.2f Mb/s    64 KB frames: %.2f Mb/s\n", r.Encap1500Mbps, r.Jumbo64KMbps)
	}
	header(os.Stdout, "Ablation: demultiplexing architecture (per matching packet)")
	r := experiments.AblationFilter(nil)
	fmt.Printf("  CSPF stack machine: %d instructions, %v\n", r.CSPFInstrs, r.CSPFTime)
	fmt.Printf("  BPF register machine: %d instructions, %v\n", r.BPFInstrs, r.BPFTime)
	fmt.Printf("  synthesized native predicate: %v\n", r.NativeTime)
	header(os.Stdout, "Ablation: application-specific variant (two-write requests)")
	if a := experiments.AblationAppSpecific(nil); a.Err == nil {
		fmt.Printf("  stock protocol: %v/op    NoDelay variant: %v/op\n", a.StockPerOp, a.NoDelayPerOp)
	}
	header(os.Stdout, "Ablation: registry bypass for connectionless/RPC traffic (§5)")
	if rr := experiments.AblationRPC(nil); rr.Err == nil {
		fmt.Printf("  every datagram via registry: %v/op    bypassed after binding: %v/op\n",
			rr.ViaServerPerOp, rr.BypassedPerOp)
	}
	header(os.Stdout, "Ablation: checksum elision on 64 KB AN1 frames")
	if c := experiments.AblationChecksum(nil); c.Err == nil {
		fmt.Printf("  with software checksum: %.2f Mb/s    elided: %.2f Mb/s\n", c.WithMbps, c.WithoutMbps)
	}
}

func runStats(zerocopy bool) {
	mode := ""
	if zerocopy {
		mode = ", zero-copy rx"
	}
	for _, sys := range experiments.Systems {
		header(os.Stdout, fmt.Sprintf("Per-layer counters: %s (Ethernet, 1 MB bulk transfer%s)", sys.Label, mode))
		report, err := experiments.StatsReportZC(sys.Org, experiments.NetEthernet, nil, zerocopy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stats:", err)
			continue
		}
		fmt.Print(report)
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
// workload on the many-host fast path (switched fabric, steered demux,
// timing wheels). With -zerocopy it delivers received frames by reference.
// With -shards N a second row federates each host's registry into N
// pinned-CPU shards, the sharded control plane that parallelizes setup.
func runChurn(w io.Writer, conns, clients, workers, shards int, zerocopy bool) {
	zc := ""
	if zerocopy {
		zc = ", zero-copy rx"
	}
	header(w, fmt.Sprintf("Connection churn: %d setups, %d clients x %d workers%s", conns, clients, workers, zc))
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
			Conns: conns, Clients: clients, Workers: workers, Shards: n, ZeroCopyRx: zerocopy,
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
