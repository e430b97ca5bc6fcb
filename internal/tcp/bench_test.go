package tcp

import (
	"flag"
	"reflect"
	"runtime"
	"testing"

	"ulp/internal/ipv4"
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
	for _, bench := range []func(*testing.B){BenchmarkHeaderEncode, BenchmarkHeaderDecode, BenchmarkEngineTransfer,
		BenchmarkRecvBufInsertInOrder, BenchmarkSendBufReadAck} {
		// A failed sub-benchmark fails its parent but leaves N at 1.
		failed := false
		r := testing.Benchmark(func(b *testing.B) { bench(b); failed = b.Failed() })
		if failed || r.N != 1 {
			t.Errorf("%s failed", runtime.FuncForPC(reflect.ValueOf(bench).Pointer()).Name())
		}
	}
}

// These benchmarks measure the real (wall-clock) cost of the protocol
// engine itself — the Go implementation, not the simulated 1993 hardware.

func BenchmarkHeaderEncode(b *testing.B) {
	src := ipv4.Addr{10, 0, 0, 1}
	dst := ipv4.Addr{10, 0, 0, 2}
	payload := make([]byte, 1460)
	h := Header{SrcPort: 1, DstPort: 2, Seq: 100, Ack: 200, Flags: FlagACK | FlagPSH, Window: 8192}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := pkt.FromBytes(HeaderLen, payload)
		h.Encode(buf, src, dst)
	}
}

func BenchmarkHeaderDecode(b *testing.B) {
	src := ipv4.Addr{10, 0, 0, 1}
	dst := ipv4.Addr{10, 0, 0, 2}
	payload := make([]byte, 1460)
	h := Header{SrcPort: 1, DstPort: 2, Seq: 100, Ack: 200, Flags: FlagACK, Window: 8192}
	buf := pkt.FromBytes(HeaderLen, payload)
	h.Encode(buf, src, dst)
	wire := append([]byte(nil), buf.Bytes()...)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seg := pkt.FromBytes(0, wire)
		if _, err := Decode(seg, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTransfer measures back-to-back engine throughput: two
// connections exchanging a megabyte through direct Input calls.
func BenchmarkEngineTransfer(b *testing.B) {
	const total = 1 << 20
	data := pattern(total)
	b.SetBytes(total)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := newTestNet(&testing.T{}, defaultCfg())
		n.connect()
		got := 0
		buf := make([]byte, 65536)
		written := 0
		for u := 0; u < 1_000_000 && got < total; u++ {
			if written < total {
				written += n.a.Write(data[written:])
			}
			for {
				r := n.b.Read(buf)
				got += r
				if r == 0 {
					break
				}
			}
			n.tick()
		}
		if got != total {
			b.Fatalf("transferred %d/%d", got, total)
		}
	}
}

func BenchmarkRecvBufInsertInOrder(b *testing.B) {
	seg := make([]byte, 1460)
	b.SetBytes(int64(len(seg)))
	for i := 0; i < b.N; i++ {
		buf := newRecvBuf(1 << 30)
		nxt := Seq(0)
		for j := 0; j < 16; j++ {
			nxt = buf.insert(nxt, nxt, seg)
		}
	}
}

func BenchmarkSendBufReadAck(b *testing.B) {
	buf := newSendBuf(1 << 20)
	buf.append(make([]byte, 1<<20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = buf.read(buf.start.Add(i%1000), 1460)
	}
}
