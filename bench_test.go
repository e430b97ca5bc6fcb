// Benchmarks regenerating every table of the paper's evaluation (§4) plus
// the ablations DESIGN.md calls out. Each benchmark runs the corresponding
// experiment driver and reports the paper's metric through ReportMetric, so
// `go test -bench=. -benchmem` reproduces the entire evaluation.
//
// The wall-clock ns/op of these benchmarks is meaningless (they simulate
// 1993 hardware in virtual time); the custom metrics are the results.
package ulp_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ulp"
	"ulp/internal/experiments"
)

// TestBenchmarksRun runs each of the package's benchmarks once, as
// `go test -bench . -benchtime=1x` does, so a benchmark that fails fails
// tier-1 too. It also fails when some package's TestBenchmarksRun leaves out
// one of that package's benchmarks.
func TestBenchmarksRun(t *testing.T) {
	runBenchmarksOnce(t,
		BenchmarkTable1, BenchmarkTable2, BenchmarkTable3, BenchmarkTable4, BenchmarkTable5,
		BenchmarkAblationBatching, BenchmarkAblationAN1MTU, BenchmarkAblationFilter,
		BenchmarkAblationAppSpecific, BenchmarkAblationZeroCopy, BenchmarkAblationChecksum,
		BenchmarkAblationRPC,
		BenchmarkEngineEvents, BenchmarkEngineTimerChurn, BenchmarkEngineProcSleep,
		BenchmarkHotPathPacketAlloc, BenchmarkHotPathWire, BenchmarkHotPathChecksum,
		BenchmarkHotPathChecksumShort, BenchmarkHotPathDemuxBPFInterp,
		BenchmarkHotPathDemuxCSPFInterp, BenchmarkHotPathDemuxNative,
		BenchmarkChurn)

	fset := token.NewFileSet()
	declared := map[string][]string{}   // package directory -> its benchmarks
	run := map[string]map[string]bool{} // package directory -> names its TestBenchmarksRun uses
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			switch {
			case !ok || fd.Recv != nil:
			case strings.HasPrefix(fd.Name.Name, "Benchmark"):
				declared[dir] = append(declared[dir], fd.Name.Name)
			case fd.Name.Name == "TestBenchmarksRun":
				run[dir] = map[string]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						run[dir][id.Name] = true
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, names := range declared {
		for _, name := range names {
			if !run[dir][name] {
				t.Errorf("%s: TestBenchmarksRun does not run %s", dir, name)
			}
		}
	}
}

// runBenchmarksOnce runs each benchmark for one iteration.
func runBenchmarksOnce(t *testing.T, benches ...func(*testing.B)) {
	bt := flag.Lookup("test.benchtime").Value
	defer bt.Set(bt.String())
	if err := bt.Set("1x"); err != nil {
		t.Fatal(err)
	}
	for _, bench := range benches {
		// A failed sub-benchmark fails its parent but leaves N at 1.
		failed := false
		r := testing.Benchmark(func(b *testing.B) { bench(b); failed = b.Failed() })
		if failed || r.N != 1 {
			t.Errorf("%s failed", runtime.FuncForPC(reflect.ValueOf(bench).Pointer()).Name())
		}
	}
}

// BenchmarkTable1 — impact of the user-level mechanisms on throughput:
// maximum-sized Ethernet packets over the raw mechanisms, no transport
// protocol, against standalone link saturation.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.StandaloneMbps, "standalone-Mb/s")
		b.ReportMetric(r.MechanismMbps, "mechanisms-Mb/s")
		b.ReportMetric(r.Percent, "%of-raw")
	}
}

// BenchmarkTable2 — TCP throughput for every system, network, and user
// packet size the paper reports.
func BenchmarkTable2(b *testing.B) {
	for _, r := range experiments.Grid {
		for _, up := range experiments.UserPacketSizes {
			b.Run(fmt.Sprintf("%s/%s/%dB", r.System, r.Network, up), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c := experiments.Table2CellFor(r.Org, r.Net, up, nil)
					if c.Err != nil {
						b.Fatal(c.Err)
					}
					b.ReportMetric(c.Mbps, "Mb/s")
				}
			})
		}
	}
}

// BenchmarkTable3 — round-trip latency for 1/512/1460-byte exchanges.
func BenchmarkTable3(b *testing.B) {
	for _, r := range experiments.Grid {
		for _, size := range experiments.LatencySizes {
			b.Run(fmt.Sprintf("%s/%s/%dB", r.System, r.Network, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c := experiments.Table3CellFor(r.Org, r.Net, size, nil)
					if c.Err != nil {
						b.Fatal(c.Err)
					}
					b.ReportMetric(float64(c.RTT.Microseconds())/1000, "RTT-ms")
				}
			})
		}
	}
}

// BenchmarkTable4 — connection setup cost per system and network.
func BenchmarkTable4(b *testing.B) {
	for _, r := range experiments.Grid {
		b.Run(fmt.Sprintf("%s/%s", r.System, r.Network), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := experiments.Table4CellFor(r.Org, r.Net, nil)
				if c.Err != nil {
					b.Fatal(c.Err)
				}
				b.ReportMetric(float64(c.Setup.Microseconds())/1000, "setup-ms")
			}
		})
	}
}

// BenchmarkTable5 — hardware/software demultiplexing tradeoffs.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.SoftwareDemux.Nanoseconds())/1000, "software-µs")
		b.ReportMetric(float64(r.HardwareDemux.Nanoseconds())/1000, "hardware-µs")
	}
}

// BenchmarkAblationBatching — batched vs per-packet notifications.
func BenchmarkAblationBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationBatching(nil)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		b.ReportMetric(r.BatchedMbps, "batched-Mb/s")
		b.ReportMetric(r.UnbatchedMbps, "unbatched-Mb/s")
	}
}

// BenchmarkAblationAN1MTU — 1500-byte encapsulation vs 64 KB frames.
func BenchmarkAblationAN1MTU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationAN1MTU(nil)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		b.ReportMetric(r.Encap1500.Mbps, "encap1500-Mb/s")
		b.ReportMetric(r.Jumbo64K.Mbps, "jumbo64k-Mb/s")
	}
}

// BenchmarkAblationFilter — CSPF vs BPF vs synthesized native demux.
func BenchmarkAblationFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationFilter(nil)
		b.ReportMetric(float64(r.CSPFTime.Nanoseconds())/1000, "cspf-µs")
		b.ReportMetric(float64(r.BPFTime.Nanoseconds())/1000, "bpf-µs")
		b.ReportMetric(float64(r.NativeTime.Nanoseconds())/1000, "native-µs")
	}
}

// BenchmarkAblationAppSpecific — stock protocol vs NoDelay variant on a
// two-write request/response workload (§5 "canned options").
func BenchmarkAblationAppSpecific(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationAppSpecific(nil)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		b.ReportMetric(float64(r.StockPerOp.Microseconds())/1000, "stock-ms/op")
		b.ReportMetric(float64(r.NoDelayPerOp.Microseconds())/1000, "nodelay-ms/op")
	}
}

// BenchmarkAblationZeroCopy — the buffer organization's small-packet win:
// 512-byte user packets on the AN1, ours vs Ultrix (the Table 2 crossover).
func BenchmarkAblationZeroCopy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ours := experiments.Table2CellFor(ulp.OrgUserLib, ulp.AN1, 512, nil)
		ultrix := experiments.Table2CellFor(ulp.OrgInKernel, ulp.AN1, 512, nil)
		if ours.Err != nil || ultrix.Err != nil {
			b.Fatal(ours.Err, ultrix.Err)
		}
		b.ReportMetric(ours.Mbps, "ours-Mb/s")
		b.ReportMetric(ultrix.Mbps, "ultrix-Mb/s")
	}
}

// BenchmarkAblationChecksum — software checksum cost with 64 KB frames.
func BenchmarkAblationChecksum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationChecksum(nil)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		b.ReportMetric(r.WithMbps, "checksummed-Mb/s")
		b.ReportMetric(r.WithoutMbps, "elided-Mb/s")
	}
}

// BenchmarkAblationRPC — §5 registry bypass for connectionless traffic:
// request-response latency via the server vs the bypassed direct path.
func BenchmarkAblationRPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationRPC(nil)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		b.ReportMetric(float64(r.ViaServerPerOp.Microseconds())/1000, "via-server-ms/op")
		b.ReportMetric(float64(r.BypassedPerOp.Microseconds())/1000, "bypassed-ms/op")
	}
}
