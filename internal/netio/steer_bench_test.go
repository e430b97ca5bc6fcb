package netio

// Wall-clock scaling benchmark for the software demultiplexing path: the
// hash-keyed steering table must stay flat as the binding population grows
// 10×, 100× and 1000×. bench/ tracks the steered path as
// netio.demux_steered_ns.

import (
	"flag"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"ulp/internal/filter"
	"ulp/internal/ipv4"
	"ulp/internal/link"
	"ulp/internal/pkt"
)

// TestBenchmarksRun runs each of the package's benchmarks once, as
// `go test -bench . -benchtime=1x` does, so a benchmark that fails fails
// tier-1 too.
func TestBenchmarksRun(t *testing.T) {
	bt := flag.Lookup("test.benchtime").Value
	defer bt.Set(bt.String())
	if err := bt.Set("1x"); err != nil {
		t.Fatal(err)
	}
	for _, bench := range []func(*testing.B){BenchmarkSteeredDemux} {
		// A failed sub-benchmark fails its parent but leaves N at 1.
		failed := false
		r := testing.Benchmark(func(b *testing.B) { bench(b); failed = b.Failed() })
		if failed || r.N != 1 {
			t.Errorf("%s failed", runtime.FuncForPC(reflect.ValueOf(bench).Pointer()).Name())
		}
	}
}

// benchFrameRaw builds the raw bytes of a TCP frame for port pair
// (20000+i → 10000+i) once; iterations re-wrap them in pooled buffers.
func benchFrameRaw(w *world, i int) []byte {
	b := buildTCPFrame(w, link.EthHeaderLen, uint16(20000+i), uint16(10000+i), []byte("bench"))
	raw := append([]byte(nil), b.Bytes()...)
	b.Release()
	return raw
}

// BenchmarkSteeredDemux delivers frames to the last-installed of n steered
// bindings. O(1): ns/op must not grow with n.
func BenchmarkSteeredDemux(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := newWorld(b, false)
			chans := make([]*Channel, n)
			for i := 0; i < n; i++ {
				sp := filter.Spec{
					LinkHdrLen: link.EthHeaderLen, Proto: ipv4.ProtoTCP,
					LocalIP: ip2, LocalPort: uint16(10000 + i),
					RemoteIP: ip1, RemotePort: uint16(20000 + i),
				}
				_, ch, err := w.m2.CreateChannel(w.krn2, sp, Template{}, 8)
				if err != nil {
					b.Fatal(err)
				}
				chans[i] = ch
			}
			raw := benchFrameRaw(w, n-1)
			target := chans[n-1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.m2.rxSoftware(pkt.FromBytes(0, raw))
				for _, d := range target.TryRecv() {
					d.Release()
				}
			}
		})
	}
}
