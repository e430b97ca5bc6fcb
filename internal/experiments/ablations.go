package experiments

import (
	"cmp"
	"time"

	"ulp"
	"ulp/internal/costs"
	"ulp/internal/filter"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/stacks"
	"ulp/internal/udp"
)

// ---------------------------------------------------------------------------
// Notification batching (paper: "network packet batching is very effective")
// ---------------------------------------------------------------------------

// BatchingResult compares bulk throughput with batched vs per-packet
// semaphore notifications.
type BatchingResult struct {
	BatchedMbps, UnbatchedMbps float64
	Err                        error
}

// AblationBatching measures the value of batching packets per notification
// on the user-level library's Ethernet receive path.
func AblationBatching(model *costs.Model) (r BatchingResult) {
	r.BatchedMbps, r.UnbatchedMbps, r.Err = variants(func(disable bool) (float64, error) {
		w := newWorld(ulp.Config{Org: ulp.OrgUserLib, Net: ulp.Ethernet, Costs: model})
		w.Node(0).Mod.DisableBatching = disable
		w.Node(1).Mod.DisableBatching = disable
		return bulkSend(w, 300<<10, 4096, stacks.Options{NoDelay: true}, 10*time.Minute)
	}, false, true)
	return r
}

// variants runs an ablation's two variants in order and returns both results
// and the first error.
func variants[V, R any](run func(V) (R, error), a, b V) (R, R, error) {
	ra, errA := run(a)
	rb, errB := run(b)
	return ra, rb, cmp.Or(errA, errB)
}

// ---------------------------------------------------------------------------
// AN1 64 KB frames (paper: "the AN1 driver does not currently use maximum
// sized AN1 packets which can be as large as 64K bytes")
// ---------------------------------------------------------------------------

// MTUResult compares the encapsulation-limited AN1 with full-size frames:
// each variant's throughput, and the frames both hosts' devices dropped at a
// full receive ring (netdev rx_dropped).
type MTUResult struct {
	Encap1500, Jumbo64K MTURun
	Err                 error
}

// MTURun is one variant of the MTU ablation.
type MTURun struct {
	Mbps    float64
	Dropped int64
}

// AblationAN1MTU lifts the 1500-byte encapsulation restriction.
func AblationAN1MTU(model *costs.Model) (r MTUResult) {
	r.Encap1500, r.Jumbo64K, r.Err = variants(func(net ulp.Net) (MTURun, error) {
		w := newWorld(ulp.Config{Org: ulp.OrgUserLib, Net: net, Costs: model})
		// Large user packets and windows to exercise the big frames.
		opts := stacks.Options{SndBuf: 65535, RcvBuf: 65535}
		mbps, err := bulkSend(w, 2<<20, 16384, opts, 10*time.Minute)
		snap := w.StatsRegistry().Snapshot()
		return MTURun{Mbps: mbps, Dropped: snap["netdev.h0.rx_dropped"] + snap["netdev.h1.rx_dropped"]}, err
	}, ulp.AN1, ulp.AN1Jumbo)
	return r
}

// ---------------------------------------------------------------------------
// Filter architecture (paper §2.2: CSPF interpretation "is not likely to
// scale with CPU speeds"; BPF "provides higher performance")
// ---------------------------------------------------------------------------

// FilterResult compares demultiplexing architectures on the standard
// TCP/IP endpoint predicate.
type FilterResult struct {
	// Instructions interpreted per matching packet.
	CSPFInstrs, BPFInstrs int
	// Modeled per-packet interpretation time: the stack machine touches
	// memory per operation (the paper's complaint), the register machine
	// keeps its state in registers.
	CSPFTime, BPFTime, NativeTime time.Duration
}

// Per-instruction interpretation costs on the 25 MHz R3000: the CSPF
// interpreter's stack traffic costs roughly 2.5 µs per operation; BPF's
// register loop about 1.2 µs.
const (
	cspfPerInstr = 2500 * time.Nanosecond
	bpfPerInstr  = 1200 * time.Nanosecond
)

// AblationFilter measures instruction counts of both interpreters against
// the synthesized native predicate the network I/O module actually uses.
func AblationFilter(model *costs.Model) FilterResult {
	m := model
	if m == nil {
		d := costs.Default()
		m = &d
	}
	spec := filter.Spec{
		LinkHdrLen: 14, Proto: ipv4.ProtoTCP,
		LocalIP: ipv4.Addr{10, 0, 0, 2}, LocalPort: 80,
		RemoteIP: ipv4.Addr{10, 0, 0, 1}, RemotePort: 1025,
	}
	frame := demoFrame(spec)
	_, nc := spec.CompileCSPF().Run(frame)
	_, nb := spec.CompileBPF().Run(frame)
	return FilterResult{
		CSPFInstrs: nc,
		BPFInstrs:  nb,
		CSPFTime:   time.Duration(nc) * cspfPerInstr,
		BPFTime:    time.Duration(nb) * bpfPerInstr,
		NativeTime: m.FilterDemux,
	}
}

// demoFrame builds a frame matching the spec (IHL=5).
func demoFrame(spec filter.Spec) []byte {
	f := make([]byte, spec.LinkHdrLen+20+8)
	f[spec.LinkHdrLen-2] = 0x08
	ip := f[spec.LinkHdrLen:]
	ip[0] = 0x45
	ip[9] = spec.Proto
	copy(ip[12:16], spec.RemoteIP[:])
	copy(ip[16:20], spec.LocalIP[:])
	ip[20] = byte(spec.RemotePort >> 8)
	ip[21] = byte(spec.RemotePort)
	ip[22] = byte(spec.LocalPort >> 8)
	ip[23] = byte(spec.LocalPort)
	return f
}

// ---------------------------------------------------------------------------
// Application-specific protocol variants (paper §5 "canned options")
// ---------------------------------------------------------------------------

// AppSpecificResult compares a two-write request/response workload under
// the stock protocol and a NoDelay variant.
type AppSpecificResult struct {
	StockPerOp, NoDelayPerOp time.Duration
	Err                      error
}

// AblationAppSpecific runs the header+body request pattern that suffers
// under Nagle.
func AblationAppSpecific(model *costs.Model) (r AppSpecificResult) {
	r.StockPerOp, r.NoDelayPerOp, r.Err = variants(func(noDelay bool) (time.Duration, error) {
		w := newWorld(ulp.Config{Org: ulp.OrgUserLib, Net: ulp.Ethernet, Costs: model})
		var perOp time.Duration
		err := exchange{opts: stacks.Options{NoDelay: noDelay}, budget: 10 * time.Minute,
			serve: func(t *kern.Thread, l stacks.Listener) error {
				c, err := l.Accept(t)
				if err != nil {
					return err
				}
				buf := make([]byte, 8)
				for readFull(t, c, buf) == nil {
					c.Write(t, []byte("response"))
				}
				return nil
			},
			client: func(t *kern.Thread, dial func() (stacks.Conn, error)) error {
				c, err := dial()
				if err != nil {
					return err
				}
				const ops = 10
				buf := make([]byte, 8)
				start := time.Duration(t.Now())
				for i := 0; i < ops; i++ {
					c.Write(t, []byte("hdr:"))
					c.Write(t, []byte("body"))
					if err := readFull(t, c, buf); err != nil {
						return err
					}
				}
				perOp = (time.Duration(t.Now()) - start) / ops
				return nil
			},
		}.run(w)
		return perOp, err
	}, false, true)
	return r
}

// ---------------------------------------------------------------------------
// Trusted-link checksum elision (another §5-style specialization)
// ---------------------------------------------------------------------------

// ChecksumResult compares bulk throughput with and without charging
// checksum time (as a link with hardware checksums would permit; the paper
// speculates "if hardware checksum alone is sufficient ... we expect the
// BQI scheme to have a significant performance advantage").
type ChecksumResult struct {
	WithMbps, WithoutMbps float64
	Err                   error
}

// AblationChecksum measures checksum cost on the AN1 with full-size 64 KB
// frames, where the software checksum is a large fraction of per-segment
// processing (~460 µs of a 25 MHz CPU per segment). The elided variant runs
// a model whose checksum costs nothing: the engine still computes real
// checksums, only the charge goes, as on a hardware-checksum link.
func AblationChecksum(model *costs.Model) (r ChecksumResult) {
	elided := costs.Default()
	if model != nil {
		elided = *model
	}
	elided.ChecksumPerByte = 0
	r.WithMbps, r.WithoutMbps, r.Err = variants(func(m *costs.Model) (float64, error) {
		w := newWorld(ulp.Config{Org: ulp.OrgUserLib, Net: ulp.AN1Jumbo, Costs: m})
		opts := stacks.Options{SndBuf: 65535, RcvBuf: 65535}
		return bulkSend(w, 4<<20, 16384, opts, 10*time.Minute)
	}, model, &elided)
	return r
}

// ---------------------------------------------------------------------------
// Registry bypass for connectionless traffic (paper §5: "after the address
// binding phase, the dedicated server can be bypassed, reducing overall
// latency which is the important performance factor in such protocols")
// ---------------------------------------------------------------------------

// RPCResult compares request-response latency with every datagram relayed
// through the registry server against the bypassed direct path.
type RPCResult struct {
	ViaServerPerOp, BypassedPerOp time.Duration
	Err                           error
}

// AblationRPC runs a UDP echo workload over the user-level library both
// ways.
func AblationRPC(model *costs.Model) (r RPCResult) {
	r.ViaServerPerOp, r.BypassedPerOp, r.Err = variants(func(bypass bool) (time.Duration, error) {
		w := newWorld(ulp.Config{Org: ulp.OrgUserLib, Net: ulp.Ethernet, Costs: model})
		srv := w.Node(0).App("server")
		cli := w.Node(1).App("client")
		var perOp time.Duration
		done := false
		var failure error
		srv.Go("srv", func(t *kern.Thread) {
			sock, err := srv.Lib.BindUDP(t, 111)
			if err != nil {
				failure = err
				done = true
				return
			}
			for {
				req := sock.Recv(t)
				var err error
				if bypass {
					err = sock.SendTo(t, req.From, req.Payload)
				} else {
					err = sock.SendVia(t, req.From, req.Payload)
				}
				if err != nil {
					failure = err
					done = true
					return
				}
			}
		})
		cli.GoAfter(time.Millisecond, "cli", func(t *kern.Thread) {
			sock, err := cli.Lib.BindUDP(t, 1111)
			if err != nil {
				failure = err
				done = true
				return
			}
			dst := udp.Endpoint{IP: w.Node(0).IP, Port: 111}
			// Address-binding phase, then the timed exchanges.
			if err := sock.Resolve(t, dst.IP); err != nil {
				failure = err
				done = true
				return
			}
			const ops = 20
			start := time.Duration(t.Now())
			for i := 0; i < ops; i++ {
				var err error
				if bypass {
					err = sock.SendTo(t, dst, []byte("request-payload!"))
				} else {
					err = sock.SendVia(t, dst, []byte("request-payload!"))
				}
				if err != nil {
					failure = err
					done = true
					return
				}
				sock.Recv(t)
			}
			perOp = (time.Duration(t.Now()) - start) / ops
			sock.Close(t)
			done = true
		})
		w.RunUntil(5*time.Minute, func() bool { return done })
		if failure != nil {
			return 0, failure
		}
		if perOp == 0 {
			return 0, errUnfinished
		}
		return perOp, nil
	}, false, true)
	return r
}
