package experiments

import (
	"fmt"
	"time"

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
func AblationBatching(model *costs.Model) BatchingResult {
	run := func(disable bool) (float64, error) {
		w := newWorld(OrgOurs, NetEthernet, model)
		w.node(0).Mod.DisableBatching = disable
		w.node(1).Mod.DisableBatching = disable
		return bulkSend(w, 300<<10, 4096, stacks.Options{NoDelay: true}, 10*time.Minute)
	}
	batched, err1 := run(false)
	unbatched, err2 := run(true)
	err := err1
	if err == nil {
		err = err2
	}
	return BatchingResult{BatchedMbps: batched, UnbatchedMbps: unbatched, Err: err}
}

// ---------------------------------------------------------------------------
// AN1 64 KB frames (paper: "the AN1 driver does not currently use maximum
// sized AN1 packets which can be as large as 64K bytes")
// ---------------------------------------------------------------------------

// MTUResult compares the encapsulation-limited AN1 with full-size frames.
type MTUResult struct {
	Encap1500Mbps, Jumbo64KMbps float64
	Err                         error
}

// AblationAN1MTU lifts the 1500-byte encapsulation restriction.
func AblationAN1MTU(model *costs.Model) MTUResult {
	run := func(net NetSel) (float64, error) {
		w := newWorld(OrgOurs, net, model)
		// Large user packets and windows to exercise the big frames.
		opts := stacks.Options{SndBuf: 65535, RcvBuf: 65535}
		return bulkSend(w, 2<<20, 16384, opts, 10*time.Minute)
	}
	encap, err1 := run(NetAN1)
	jumbo, err2 := run(NetAN1Jumbo)
	err := err1
	if err == nil {
		err = err2
	}
	return MTUResult{Encap1500Mbps: encap, Jumbo64KMbps: jumbo, Err: err}
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
func AblationAppSpecific(model *costs.Model) AppSpecificResult {
	run := func(opts stacks.Options) (time.Duration, error) {
		w := newWorld(OrgOurs, NetEthernet, model)
		srv := w.app(0, "server")
		cli := w.app(1, "client")
		var perOp time.Duration
		done := false
		var failure error
		srv.Go("srv", func(t *kern.Thread) {
			l, err := srv.Stack.Listen(t, 80, opts)
			if err != nil {
				failure = err
				done = true
				return
			}
			c, err := l.Accept(t)
			if err != nil {
				failure = err
				done = true
				return
			}
			buf := make([]byte, 64)
			for {
				got := 0
				for got < 8 {
					n, _ := c.Read(t, buf[got:8])
					if n == 0 {
						return
					}
					got += n
				}
				c.Write(t, []byte("response"))
			}
		})
		cli.GoAfter(time.Millisecond, "cli", func(t *kern.Thread) {
			c, err := cli.Stack.Connect(t, w.endpoint(0, 80), opts)
			if err != nil {
				failure = err
				done = true
				return
			}
			const ops = 10
			buf := make([]byte, 64)
			start := time.Duration(t.Now())
			for i := 0; i < ops; i++ {
				c.Write(t, []byte("hdr:"))
				c.Write(t, []byte("body"))
				got := 0
				for got < 8 {
					n, _ := c.Read(t, buf[got:8])
					got += n
				}
			}
			perOp = (time.Duration(t.Now()) - start) / ops
			done = true
		})
		w.runUntil(10*time.Minute, func() bool { return done })
		return perOp, failure
	}
	stock, err1 := run(stacks.Options{})
	nodelay, err2 := run(stacks.Options{NoDelay: true})
	err := err1
	if err == nil {
		err = err2
	}
	return AppSpecificResult{StockPerOp: stock, NoDelayPerOp: nodelay, Err: err}
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
// processing (~460 µs of a 25 MHz CPU per segment).
func AblationChecksum(model *costs.Model) ChecksumResult {
	run := func(off bool) (float64, error) {
		w := newWorld(OrgOurs, NetAN1Jumbo, model)
		opts := stacks.Options{SndBuf: 65535, RcvBuf: 65535, NoChecksum: off}
		return bulkSend(w, 4<<20, 16384, opts, 10*time.Minute)
	}
	with, err1 := run(false)
	without, err2 := run(true)
	err := err1
	if err == nil {
		err = err2
	}
	return ChecksumResult{WithMbps: with, WithoutMbps: without, Err: err}
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
func AblationRPC(model *costs.Model) RPCResult {
	run := func(bypass bool) (time.Duration, error) {
		w := newWorld(OrgOurs, NetEthernet, model)
		srv := w.app(0, "server")
		cli := w.app(1, "client")
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
			dst := udpEndpoint(w, 0, 111)
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
		w.runUntil(5*time.Minute, func() bool { return done })
		if failure != nil {
			return 0, failure
		}
		if perOp == 0 {
			return 0, errIncomplete
		}
		return perOp, nil
	}
	via, err1 := run(false)
	byp, err2 := run(true)
	err := err1
	if err == nil {
		err = err2
	}
	return RPCResult{ViaServerPerOp: via, BypassedPerOp: byp, Err: err}
}

var errIncomplete = fmt.Errorf("experiments: workload incomplete")

// udpEndpoint names a UDP endpoint on a node.
func udpEndpoint(w *world, node int, port uint16) udp.Endpoint {
	return udp.Endpoint{IP: w.node(node).IP, Port: port}
}
