// Wall-clock performance benchmarks for the simulator's hot layers: the
// event engine, the packet buffer lifecycle, the Internet checksum, and
// input demultiplexing.
//
// Unlike the BenchmarkTable*/BenchmarkAblation* suite (whose ns/op is
// meaningless — those report *virtual-time* metrics through ReportMetric),
// these benchmarks measure real CPU time and allocation counts: how fast
// the simulation itself executes. bench/ measures whole worlds on the same
// clock and holds the baseline; TestBenchmarksRun runs each of these once.
package ulp_test

import (
	"testing"
	"time"

	"ulp/internal/checksum"
	"ulp/internal/experiments"
	"ulp/internal/filter"
	"ulp/internal/ipv4"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/wire"
)

// ---------------------------------------------------------------------------
// Event engine
// ---------------------------------------------------------------------------

// BenchmarkEngineEvents measures raw event scheduling and dispatch: each
// iteration schedules a batch of events with scattered deadlines and drains
// the heap.
func BenchmarkEngineEvents(b *testing.B) {
	const batch = 4096
	s := sim.New()
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := s.Now()
		for k := 0; k < batch; k++ {
			// Deterministic scatter so the heap sees realistic sift work.
			off := sim.Dur((uint64(k) * 2654435761) % 1000003)
			s.At(now.Add(off), fn)
		}
		s.Run(0)
	}
	b.StopTimer()
	if n != b.N*batch {
		b.Fatalf("ran %d events, want %d", n, b.N*batch)
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineTimerChurn measures the TCP retransmit pattern: a timer
// armed and cancelled over and over, with only a rare fire. With lazy
// cancellation the dead events pile up in the heap until their deadlines
// pass; eager removal keeps the heap bounded.
func BenchmarkEngineTimerChurn(b *testing.B) {
	const batch = 4096
	s := sim.New()
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < batch; k++ {
			tm := s.After(10*time.Millisecond, fn)
			tm.Cancel()
		}
		// One live event per batch so the run advances past the cancelled
		// deadlines and the baseline pays for popping its dead events.
		s.After(20*time.Millisecond, fn)
		s.Run(0)
	}
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "cancels/sec")
}

// BenchmarkEngineProcSleep measures the proc park/resume handoff: one proc
// sleeping in a tight loop, i.e. two channel operations plus the timer
// machinery per park.
func BenchmarkEngineProcSleep(b *testing.B) {
	const parks = 4096
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		s := sim.New()
		s.Spawn("sleeper", func(p *sim.Proc) {
			for k := 0; k < parks; k++ {
				p.Sleep(time.Microsecond)
				total++
			}
		})
		s.Run(0)
	}
	b.StopTimer()
	if total != b.N*parks {
		b.Fatalf("parked %d times, want %d", total, b.N*parks)
	}
	b.ReportMetric(float64(b.N*parks)/b.Elapsed().Seconds(), "parks/sec")
}

// ---------------------------------------------------------------------------
// Packet path
// ---------------------------------------------------------------------------

// BenchmarkHotPathPacketAlloc measures the pure packet buffer lifecycle of
// one maximum-sized Ethernet data segment: allocate with layered headroom,
// fill, prepend transport/IP/link headers, checksum, release.
func BenchmarkHotPathPacketAlloc(b *testing.B) {
	payload := make([]byte, 1460)
	for i := range payload {
		payload[i] = byte(i)
	}
	headroom := link.EthHeaderLen + ipv4.HeaderLen + 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := pkt.FromBytes(headroom, payload)
		copy(buf.Prepend(20), payload[:20]) // transport header
		h := ipv4.Header{TTL: 64, Proto: ipv4.ProtoTCP,
			Src: ipv4.Addr{10, 0, 0, 1}, Dst: ipv4.Addr{10, 0, 0, 2}}
		h.Encode(buf)
		copy(buf.Prepend(link.EthHeaderLen), payload[:link.EthHeaderLen])
		if !checksum.Verify(buf.Bytes()[link.EthHeaderLen : link.EthHeaderLen+ipv4.HeaderLen]) {
			b.Fatal("bad IP header checksum")
		}
		buf.Release()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
}

// benchStation is a wire endpoint that consumes and releases every frame.
type benchStation struct {
	addr link.Addr
	rx   int
}

func (st *benchStation) Addr() link.Addr { return st.addr }
func (st *benchStation) Deliver(f *pkt.Buf) {
	st.rx++
	f.Release()
}

// BenchmarkHotPathWire measures the end-to-end simulated packet path: frames
// allocated, serialized onto a shared Ethernet segment, propagated through
// the event engine, delivered, and released.
func BenchmarkHotPathWire(b *testing.B) {
	const batch = 256
	s := sim.New()
	g := wire.New(s, wire.EthernetConfig())
	src := &benchStation{addr: link.MakeAddr(1)}
	dst := &benchStation{addr: link.MakeAddr(2)}
	g.Attach(src)
	g.Attach(dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < batch; k++ {
			g.Transmit(src.addr, dst.addr, pkt.New(0, 1500))
		}
		s.Run(0)
	}
	b.StopTimer()
	if dst.rx != b.N*batch {
		b.Fatalf("delivered %d frames, want %d", dst.rx, b.N*batch)
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "packets/sec")
}

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

// BenchmarkHotPathChecksum measures the Internet checksum inner loop over a
// maximum-sized TCP payload.
func BenchmarkHotPathChecksum(b *testing.B) {
	buf := make([]byte, 1460)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	var acc uint16
	for i := 0; i < b.N; i++ {
		acc += checksum.Checksum(buf)
	}
	b.StopTimer()
	_ = acc
}

// BenchmarkHotPathChecksumShort measures the header-sized case (20 bytes),
// where setup overhead dominates.
func BenchmarkHotPathChecksumShort(b *testing.B) {
	buf := make([]byte, 20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	var acc uint16
	for i := 0; i < b.N; i++ {
		acc += checksum.Checksum(buf)
	}
	b.StopTimer()
	_ = acc
}

// ---------------------------------------------------------------------------
// Demultiplexing
// ---------------------------------------------------------------------------

// demuxSpec is the standard connected-TCP-endpoint predicate.
var demuxSpec = filter.Spec{
	LinkHdrLen: 14, Proto: ipv4.ProtoTCP,
	LocalIP: [4]byte{10, 0, 0, 2}, LocalPort: 80,
	RemoteIP: [4]byte{10, 0, 0, 1}, RemotePort: 1025,
}

// demuxFrame builds a frame matching demuxSpec (IHL=5).
func demuxFrame() []byte {
	s := demuxSpec
	f := make([]byte, s.LinkHdrLen+20+8)
	f[s.LinkHdrLen-2] = 0x08
	ip := f[s.LinkHdrLen:]
	ip[0] = 0x45
	ip[9] = s.Proto
	copy(ip[12:16], s.RemoteIP[:])
	copy(ip[16:20], s.LocalIP[:])
	ip[20] = byte(s.RemotePort >> 8)
	ip[21] = byte(s.RemotePort)
	ip[22] = byte(s.LocalPort >> 8)
	ip[23] = byte(s.LocalPort)
	return f
}

// BenchmarkHotPathDemuxBPFInterp measures the interpreted BPF predicate.
func BenchmarkHotPathDemuxBPFInterp(b *testing.B) {
	prog := demuxSpec.CompileBPF()
	frame := demuxFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := prog.Run(frame); !ok {
			b.Fatal("predicate rejected matching frame")
		}
	}
}

// BenchmarkHotPathDemuxCSPFInterp measures the interpreted CSPF predicate.
func BenchmarkHotPathDemuxCSPFInterp(b *testing.B) {
	prog := demuxSpec.CompileCSPF()
	frame := demuxFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := prog.Run(frame); !ok {
			b.Fatal("predicate rejected matching frame")
		}
	}
}

// BenchmarkHotPathDemuxNative measures the hoisted-constant native predicate
// netio installs for its software demux bindings.
func BenchmarkHotPathDemuxNative(b *testing.B) {
	frame := demuxFrame()
	match := demuxSpec.Compile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !match(frame) {
			b.Fatal("predicate rejected matching frame")
		}
	}
}

// ---------------------------------------------------------------------------
// Connection churn (many-host fast path)
// ---------------------------------------------------------------------------

// BenchmarkChurn runs the connection-churn experiment end to end — switched
// fabric, steered demux, timing wheels — and reports simulator throughput
// (events/wall-second). ns/op here is the wall-clock cost of the whole
// experiment (the virtual-time results are asserted separately in
// TestChurnSmoke).
func BenchmarkChurn(b *testing.B) {
	var events float64
	for i := 0; i < b.N; i++ {
		r := experiments.Churn(experiments.ChurnConfig{Conns: 400, Clients: 4, Workers: 8})
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		events += r.EventsPerWSec
	}
	b.ReportMetric(events/float64(b.N), "events/sec")
}
