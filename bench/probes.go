package main

// Wall-clock probes of single layers, and the paper's two comparison
// organizations on the virtual clock. Unlike the workloads, which go through
// the ulp facade only, the probes call internal packages directly; README
// ("What the probes pin") lists every signature they depend on.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"ulp"
	"ulp/internal/checksum"
	"ulp/internal/costs"
	"ulp/internal/explore"
	"ulp/internal/filter"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/timerwheel"
	"ulp/internal/wire"
)

// probeResult is one probe's fastest round.
type probeResult struct {
	NS     float64 // wall ns per operation
	Allocs float64 // heap objects per operation
}

// bestOf times fn(iters) five times and keeps the fastest round: the probes
// are short, so anything above the minimum is the machine, not the code.
func bestOf(iters int, fn func(n int)) probeResult {
	best := probeResult{NS: -1}
	var m0, m1 runtime.MemStats
	for round := 0; round < 5; round++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn(iters)
		ns := float64(time.Since(t0).Nanoseconds()) / float64(iters)
		runtime.ReadMemStats(&m1)
		if best.NS < 0 || ns < best.NS {
			best = probeResult{ns, float64(m1.Mallocs-m0.Mallocs) / float64(iters)}
		}
	}
	return best
}

var sink uint32 // keeps the compiler from dropping a probe's result

// demuxSpec is a connected TCP endpoint on host 10.0.0.2; demuxFrame matches it.
var demuxSpec = filter.Spec{
	LinkHdrLen: link.EthHeaderLen, Proto: ipv4.ProtoTCP,
	LocalIP: [4]byte{10, 0, 0, 2}, LocalPort: 80,
	RemoteIP: [4]byte{10, 0, 0, 1}, RemotePort: 1025,
}

// demuxFrame builds an Ethernet frame from station 1 to station 2 whose IP
// and TCP addressing matches s.
func demuxFrame(s filter.Spec) []byte {
	f := make([]byte, link.EthHeaderLen+20+20+8)
	dst, src := link.MakeAddr(2), link.MakeAddr(1)
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	binary.BigEndian.PutUint16(f[12:], 0x0800)
	ip := f[link.EthHeaderLen:]
	ip[0] = 0x45
	ip[9] = s.Proto
	copy(ip[12:16], s.RemoteIP[:])
	copy(ip[16:20], s.LocalIP[:])
	binary.BigEndian.PutUint16(ip[20:], s.RemotePort)
	binary.BigEndian.PutUint16(ip[22:], s.LocalPort)
	return f
}

// countingStation is a wire endpoint that consumes every frame.
type countingStation struct {
	addr link.Addr
	rx   int
}

func (st *countingStation) Addr() link.Addr { return st.addr }
func (st *countingStation) Deliver(f *pkt.Buf) {
	st.rx++
	f.Release()
}

// runProbes measures every wall probe, keyed by metric name. scale shortens
// the probes the way it shortens the workloads.
func runProbes(scale float64) (map[string]probeResult, error) {
	P := map[string]probeResult{}
	var err error
	// it scales an iteration count, keeping it a multiple of the batches of
	// 256 and 4 the wire and netio probes send in.
	it := func(full int) int { return max(int(float64(full)*scale)&^255, 256) }
	fail := func(format string, a ...any) {
		if err == nil {
			err = fmt.Errorf(format, a...)
		}
	}

	// sim: event dispatch, proc hand-off, timer cancel.
	{
		s := sim.New()
		fired := 0
		fn := func() { fired++ }
		P["sim.event_ns"] = bestOf(it(1<<16), func(n int) {
			now := s.Now()
			for k := 0; k < n; k++ {
				// Scattered deadlines, so the heap does real sift work.
				s.At(now.Add(sim.Dur((uint64(k)*2654435761)%1000003)), fn)
			}
			s.Run(0)
		})
		if fired != 5*it(1<<16) {
			fail("sim.event_ns: %d events fired, want %d", fired, 5*it(1<<16))
		}
		P["sim.timer_cancel_ns"] = bestOf(it(1<<16), func(n int) {
			for k := 0; k < n; k++ {
				s.After(10*time.Millisecond, fn).Cancel()
			}
			s.After(20*time.Millisecond, fn)
			s.Run(0)
		})
		parks := 0
		P["sim.proc_switch_ns"] = bestOf(it(1<<14), func(n int) {
			s := sim.New()
			s.Spawn("sleeper", func(p *sim.Proc) {
				for k := 0; k < n; k++ {
					p.Sleep(time.Microsecond)
					parks++
				}
			})
			s.Run(0)
		})
		if parks != 5*it(1<<14) {
			fail("sim.proc_switch_ns: %d parks, want %d", parks, 5*it(1<<14))
		}
	}

	// kern: semaphore ping-pong and port RPC between two domains of a host.
	{
		rounds := 0
		P["kern.sem_pingpong_ns"] = bestOf(it(1<<13), func(n int) {
			s := sim.New()
			h := kern.NewHost(s, "h", costs.Default())
			ping, pong := kern.NewSem(h, "ping", 0), kern.NewSem(h, "pong", 0)
			h.NewDomain("a", false).Spawn("a", func(t *kern.Thread) {
				for k := 0; k < n; k++ {
					ping.V()
					pong.P(t)
					rounds++
				}
			})
			h.NewDomain("b", false).Spawn("b", func(t *kern.Thread) {
				for k := 0; k < n; k++ {
					ping.P(t)
					pong.V()
				}
			})
			s.Run(0)
		})
		if rounds != 5*it(1<<13) {
			fail("kern.sem_pingpong_ns: %d rounds, want %d", rounds, 5*it(1<<13))
		}
		calls := 0
		P["kern.port_call_ns"] = bestOf(it(1<<13), func(n int) {
			s := sim.New()
			h := kern.NewHost(s, "h", costs.Default())
			port := kern.NewPort(h, "svc")
			h.NewDomain("server", true).Spawn("srv", func(t *kern.Thread) {
				for k := 0; k < n; k++ {
					port.Receive(t).ReplyTo(t, kern.Msg{Op: "ok"})
				}
			})
			h.NewDomain("client", false).Spawn("cli", func(t *kern.Thread) {
				for k := 0; k < n; k++ {
					port.Call(t, kern.Msg{Op: "ping"})
					calls++
				}
			})
			s.Run(0)
		})
		if calls != 5*it(1<<13) {
			fail("kern.port_call_ns: %d calls, want %d", calls, 5*it(1<<13))
		}
	}

	// pkt, checksum, filter: pure functions on one frame.
	{
		P["pkt.get_put_ns"] = bestOf(it(1<<18), func(n int) {
			for k := 0; k < n; k++ {
				pkt.New(54, 1460).Release()
			}
		})
		payload := make([]byte, 1460)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		P["checksum.sum_1460_ns"] = bestOf(it(1<<18), func(n int) {
			for k := 0; k < n; k++ {
				sink += uint32(checksum.Checksum(payload))
			}
		})
		frame := demuxFrame(demuxSpec)
		native := demuxSpec.Compile()
		bpf := demuxSpec.CompileBPF()
		if ok, _ := bpf.Run(frame); !ok || !native(frame) {
			fail("filter: the predicates reject the frame built to match them")
		}
		P["filter.demux_native_ns"] = bestOf(it(1<<20), func(n int) {
			for k := 0; k < n; k++ {
				if native(frame) {
					sink++
				}
			}
		})
		P["filter.demux_bpf_ns"] = bestOf(it(1<<18), func(n int) {
			for k := 0; k < n; k++ {
				if ok, _ := bpf.Run(frame); ok {
					sink++
				}
			}
		})
	}

	// wire: frames across a two-station Ethernet.
	{
		s := sim.New()
		g := wire.New(s, wire.EthernetConfig())
		src := &countingStation{addr: link.MakeAddr(1)}
		dst := &countingStation{addr: link.MakeAddr(2)}
		g.Attach(src)
		g.Attach(dst)
		P["wire.frame_ns"] = bestOf(it(1<<14), func(n int) {
			for k := 0; k < n; k += 256 {
				for i := 0; i < 256; i++ {
					g.Transmit(src.addr, dst.addr, pkt.New(0, 1500))
				}
				s.Run(0)
			}
		})
		if dst.rx != 5*it(1<<14) {
			fail("wire.frame_ns: %d frames delivered, want %d", dst.rx, 5*it(1<<14))
		}
	}

	// tcp: header codec, and whole segments through explore's two-engine pipe.
	{
		src, dst := ipv4.Addr{10, 0, 0, 1}, ipv4.Addr{10, 0, 0, 2}
		payload := make([]byte, 1460)
		h := tcp.Header{SrcPort: 1025, DstPort: 80, Seq: 100, Ack: 200,
			Flags: tcp.FlagACK | tcp.FlagPSH, Window: 8192}
		bad := 0
		P["tcp.header_codec_ns"] = bestOf(it(1<<16), func(n int) {
			for k := 0; k < n; k++ {
				b := pkt.FromBytes(tcp.HeaderLen, payload)
				h.Encode(b, src, dst)
				if _, err := tcp.Decode(b, src, dst); err != nil {
					bad++
				}
				b.Release()
			}
		})
		if bad != 0 {
			fail("tcp.header_codec_ns: %d segments failed to decode", bad)
		}
		// One connection, 400 writes of 4 KiB a step apart, then both close.
		sc := explore.Scenario{Name: "bench-pipe", MaxSteps: 600, TimeWaitTicks: 10, Ops: []explore.Op{
			{Step: 0, Side: explore.B, Kind: explore.OpOpenListen},
			{Step: 0, Side: explore.A, Kind: explore.OpOpenActive},
		}}
		for step := 6; step < 406; step++ {
			sc.Ops = append(sc.Ops, explore.Op{Step: step, Side: explore.A, Kind: explore.OpWrite, Arg: 4096})
		}
		sc.Ops = append(sc.Ops,
			explore.Op{Step: 420, Side: explore.A, Kind: explore.OpClose},
			explore.Op{Step: 430, Side: explore.B, Kind: explore.OpClose})
		frames := 0
		pipe := bestOf(max(int(4*scale), 1), func(n int) {
			for k := 0; k < n; k++ {
				res := explore.Run(sc, nil)
				if len(res.Violations) > 0 {
					fail("tcp.segment_ns: the pipe scenario violates conformance: %s", res.Violations[0].Detail)
				}
				frames = res.Frames
			}
		})
		if frames < 800 {
			fail("tcp.segment_ns: the pipe carried %d frames, want at least 800", frames)
		} else {
			P["tcp.segment_ns"] = probeResult{pipe.NS / float64(frames), pipe.Allocs / float64(frames)}
		}
	}

	// timerwheel: arm and cancel with 10000 other timers armed.
	{
		w := timerwheel.New(2, 256)
		load := make([]timerwheel.Timer, 10000)
		for i := range load {
			w.Set(&load[i], uint64(i%60000)+1, func() {})
		}
		var tm timerwheel.Timer
		fn := func() {}
		P["timerwheel.set_cancel_ns"] = bestOf(it(1<<20), func(n int) {
			for k := 0; k < n; k++ {
				w.Set(&tm, uint64(k%1000)+1, fn)
				w.Cancel(&tm)
			}
		})
	}

	// netio: a frame from the wire, through the Lance, into the last of 1000
	// steered bindings.
	{
		s := sim.New()
		g := wire.New(s, wire.EthernetConfig())
		src := &countingStation{addr: link.MakeAddr(1)}
		g.Attach(src)
		h := kern.NewHost(s, "h2", costs.Default())
		m := netio.New(h, netdev.NewLance(h, g, link.MakeAddr(2)))
		krn := h.NewDomain("kernel", true)
		var last *netio.Channel
		spec := demuxSpec
		for i := 0; i < 1000; i++ {
			spec.LocalPort, spec.RemotePort = uint16(10000+i), uint16(20000+i)
			_, ch, cerr := m.CreateChannel(krn, spec, netio.Template{}, 8)
			if cerr != nil {
				fail("netio.demux_steered_ns: %v", cerr)
				break
			}
			last = ch
		}
		if last != nil {
			raw := demuxFrame(spec)
			got := 0
			P["netio.demux_steered_ns"] = bestOf(it(1<<13), func(n int) {
				for k := 0; k < n; k += 4 {
					for i := 0; i < 4; i++ { // half a ring at a time, so none overflows
						g.Transmit(src.addr, link.MakeAddr(2), pkt.FromBytes(0, raw))
					}
					s.Run(0)
					for _, b := range last.TryRecv() {
						b.Release()
						got++
					}
				}
			})
			if got != 5*it(1<<13) {
				fail("netio.demux_steered_ns: %d frames reached the binding, want %d", got, 5*it(1<<13))
			}
		}
	}
	return P, err
}

// compareOrg runs one connection set-up, 200 echo exchanges of 64 bytes and
// a 1 MiB one-way transfer on a two-host Ethernet under one of the paper's
// comparison organizations. All three results are virtual and exact.
func compareOrg(org ulp.Org) (goodputMbps, rttUS, setupMS float64, err error) {
	const exchanges, msg, bulk = 200, 64, 1 << 20
	w := ulp.NewWorld(ulp.Config{Org: org, Net: ulp.Ethernet})
	srv, cli := w.Node(0).App("server"), w.Node(1).App("client")
	fail := func(format string, a ...any) {
		if err == nil {
			err = fmt.Errorf("stacks.%s: %s", org, fmt.Sprintf(format, a...))
		}
	}
	received, done := 0, false
	srv.Go("srv", func(t *kern.Thread) {
		l, lerr := srv.Stack.Listen(t, 80, stacks.Options{})
		if lerr != nil {
			fail("listen: %v", lerr)
			return
		}
		c, aerr := l.Accept(t)
		if aerr != nil {
			fail("accept: %v", aerr)
			return
		}
		buf := make([]byte, 8192)
		for echoed := 0; echoed < exchanges*msg; {
			n, rerr := c.Read(t, buf)
			if rerr != nil || n == 0 {
				fail("echo read: n=%d %v", n, rerr)
				return
			}
			c.Write(t, buf[:n])
			echoed += n
		}
		for received < bulk {
			n, rerr := c.Read(t, buf)
			if rerr != nil || n == 0 {
				fail("bulk read: n=%d %v", n, rerr)
				return
			}
			received += n
		}
		done = true
	})
	var setup, rtt, bulkStart time.Duration
	cli.GoAfter(time.Millisecond, "cli", func(t *kern.Thread) {
		t0 := w.Now()
		c, cerr := cli.Stack.Connect(t, w.Endpoint(0, 80), stacks.Options{})
		if cerr != nil {
			fail("connect: %v", cerr)
			return
		}
		setup = w.Now() - t0
		out, in := make([]byte, msg), make([]byte, msg)
		t0 = w.Now()
		for k := 0; k < exchanges; k++ {
			c.Write(t, out)
			for got := 0; got < msg; {
				n, rerr := c.Read(t, in[got:])
				if rerr != nil || n == 0 {
					fail("echo reply: n=%d %v", n, rerr)
					return
				}
				got += n
			}
		}
		rtt = (w.Now() - t0) / exchanges
		bulkStart = w.Now()
		chunk := make([]byte, 4096)
		for sent := 0; sent < bulk; sent += len(chunk) {
			if _, werr := c.Write(t, chunk); werr != nil {
				fail("bulk write: %v", werr)
				return
			}
		}
	})
	w.RunUntil(5*time.Minute, func() bool { return done || err != nil })
	if err == nil && !done {
		fail("did not finish in 5 virtual minutes")
	}
	if err != nil {
		return 0, 0, 0, err
	}
	return bulk * 8 / (w.Now() - bulkStart).Seconds() / 1e6, rtt.Seconds() * 1e6, setup.Seconds() * 1e3, nil
}
