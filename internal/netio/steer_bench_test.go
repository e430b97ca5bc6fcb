package netio

// Wall-clock scaling benchmarks for the software demultiplexing path: the
// hash-keyed steering table must stay flat as the binding population grows
// 10× and 100×, while the chain (the pre-steering linear scan, still used
// for non-steerable specs) degrades linearly. bench/ tracks the steered
// path as netio.demux_steered_ns.

import (
	"fmt"
	"testing"

	"ulp/internal/filter"
	"ulp/internal/ipv4"
	"ulp/internal/link"
	"ulp/internal/pkt"
)

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

// BenchmarkChainedDemux is the same delivery through the chain: each spec
// keeps RemotePort wild with RemoteIP set (not steerable), so every frame
// walks the linear scan the steering table replaced. ns/op grows with n —
// the before-side of the O(1) demux tentpole.
func BenchmarkChainedDemux(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := newWorld(b, false)
			chans := make([]*Channel, n)
			for i := 0; i < n; i++ {
				sp := filter.Spec{
					LinkHdrLen: link.EthHeaderLen, Proto: ipv4.ProtoTCP,
					LocalIP: ip2, LocalPort: uint16(10000 + i),
					RemoteIP: ip1, // RemotePort wild: chains, never steered
				}
				_, ch, err := w.m2.CreateChannel(w.krn2, sp, Template{}, 8)
				if err != nil {
					b.Fatal(err)
				}
				chans[i] = ch
			}
			if steered, chained := w.m2.SteeredBindings(); steered != 0 || chained != n {
				b.Fatalf("steered=%d chained=%d, want 0/%d", steered, chained, n)
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
