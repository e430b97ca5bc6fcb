package experiments

import (
	"fmt"
	"time"

	"ulp"
	"ulp/internal/costs"
	"ulp/internal/filter"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
)

// ---------------------------------------------------------------------------
// Table 1 — Impact of our mechanisms on throughput
// ---------------------------------------------------------------------------

// Table1Result reports the raw-mechanism micro-benchmark: maximum-sized
// Ethernet packets exchanged over the user-level mechanisms (shared memory,
// library-kernel signalling, protection checking, template matching) with
// no transport protocol, against the standalone raw-hardware saturation
// rate.
type Table1Result struct {
	StandaloneMbps float64
	MechanismMbps  float64
	Percent        float64
	Notifications  int
	Packets        int
	// Per-packet CPU cost of the mechanisms on each side: the overhead is
	// "very modest" because it pipelines completely under the 1.2 ms wire
	// time of a maximum-sized Ethernet packet.
	SenderCPUPerPkt, ReceiverCPUPerPkt time.Duration
}

// Table1 runs the mechanism micro-benchmark on the Ethernet.
func Table1(model *costs.Model) (Table1Result, error) {
	w := newWorld(ulp.Config{Org: ulp.OrgUserLib, Net: ulp.Ethernet, Costs: model})
	const payload = link.EthMTU
	const packets = 400

	// Standalone: link saturation with Ethernet framing and inter-packet
	// gaps accounted for, measured on the same simulated wire.
	frameLen := link.EthHeaderLen + payload
	txTime := w.Seg.TxTime(frameLen)
	standalone := mbps(int64(payload), txTime)

	// Receiver-side channel: raw EtherType demux binding created by the
	// privileged kernel domain, exactly as the registry would.
	n2 := w.Node(1)
	krn := n2.Host.NewDomain("bench-kernel", true)
	tmpl2 := netio.Template{LinkSrc: n2.Mod.Device().Addr(), Type: link.TypeRaw}
	_, ch, err := n2.Mod.CreateRawChannel(krn, link.TypeRaw, tmpl2, 64)
	if err != nil {
		return Table1Result{}, err
	}
	var bell netio.Doorbell
	bell.Init(n2.Host)
	ch.Attach(&bell, nil)

	// Sender-side capability.
	n1 := w.Node(0)
	krn1 := n1.Host.NewDomain("bench-kernel", true)
	tmpl1 := netio.Template{LinkSrc: n1.Mod.Device().Addr(), Type: link.TypeRaw}
	cap, _, err := n1.Mod.CreateRawChannel(krn1, link.TypeRaw, tmpl1, 4)
	if err != nil {
		return Table1Result{}, err
	}

	var firstByte, lastByte time.Duration
	received := 0
	app1 := w.Node(0).App("blaster")
	app2 := w.Node(1).App("sink")

	app1.Go("tx", func(t *kern.Thread) {
		for i := 0; i < packets; i++ {
			// The frame is built in the shared region: no user copy.
			b := pkt.New(link.EthHeaderLen, payload)
			h := link.EthHeader{Dst: n2.Mod.Device().Addr(), Src: n1.Mod.Device().Addr(), Type: link.TypeRaw}
			h.Encode(b)
			if err := n1.Mod.Send(t, cap, b); err != nil {
				return
			}
		}
	})
	app2.Go("rx", func(t *kern.Thread) {
		for received < packets {
			batch := ch.TryRecv()
			if len(batch) == 0 {
				bell.Wait(t)
				continue
			}
			for _, b := range batch {
				if received == 0 {
					firstByte = time.Duration(t.Now())
				}
				received++
				lastByte = time.Duration(t.Now())
				b.Release()
			}
		}
	})
	w.RunUntil(5*time.Minute, func() bool { return received >= packets })
	if received < packets {
		return Table1Result{}, fmt.Errorf("table1: received %d/%d", received, packets)
	}
	got := mbps(int64(payload)*int64(packets-1), lastByte-firstByte)
	return Table1Result{
		StandaloneMbps:    standalone,
		MechanismMbps:     got,
		Percent:           100 * got / standalone,
		Notifications:     ch.Notifications,
		Packets:           received,
		SenderCPUPerPkt:   n1.Host.CPU.Busy() / time.Duration(packets),
		ReceiverCPUPerPkt: n2.Host.CPU.Busy() / time.Duration(packets),
	}, nil
}

// ---------------------------------------------------------------------------
// Table 2 — Throughput
// ---------------------------------------------------------------------------

// UserPacketSizes are the application write sizes of Table 2.
var UserPacketSizes = []int{512, 1024, 2048, 4096}

// Table2Cell is one throughput measurement.
type Table2Cell struct {
	Mbps float64
	Err  error
}

// Table2CellFor measures one system/net/size cell: 400 KiB of bulk data
// under a 10-minute virtual budget.
func Table2CellFor(org ulp.Org, net ulp.Net, userPacket int, model *costs.Model) Table2Cell {
	// One network packet per user packet (up to the link maximum): the
	// paper's observed size dependence ("network efficiency improves with
	// increased packet size up to the maximum allowable on the link")
	// requires per-write transmission rather than Nagle coalescing.
	w := newWorld(ulp.Config{Org: org, Net: net, Costs: model})
	mbps, err := bulkSend(w, 400<<10, userPacket, stacks.Options{NoDelay: true}, 10*time.Minute)
	return Table2Cell{Mbps: mbps, Err: err}
}

// Table2 measures every Grid row at every user packet size: cells[i][j] is
// Grid[i] at UserPacketSizes[j].
func Table2(model *costs.Model) (cells [][]Table2Cell) {
	for _, r := range Grid {
		var row []Table2Cell
		for _, up := range UserPacketSizes {
			row = append(row, Table2CellFor(r.Org, r.Net, up, model))
		}
		cells = append(cells, row)
	}
	return cells
}

// ---------------------------------------------------------------------------
// Table 3 — Round-trip latency
// ---------------------------------------------------------------------------

// LatencySizes are the payload sizes of Table 3.
var LatencySizes = []int{1, 512, 1460}

// Table3Cell is one latency measurement.
type Table3Cell struct {
	RTT time.Duration
	Err error
}

// Table3CellFor measures one cell. Latency tests disable the batching-
// friendly policies that hurt request-response (the paper measured simple
// ping-pong exchanges; Nagle never engages because each side has at most
// one outstanding small segment, and delayed ACKs piggyback on the echo).
func Table3CellFor(org ulp.Org, net ulp.Net, size int, model *costs.Model) Table3Cell {
	w := newWorld(ulp.Config{Org: org, Net: net, Costs: model})
	rtt, err := pingPong(w, size, 32, stacks.Options{}, 10*time.Minute)
	return Table3Cell{RTT: rtt, Err: err}
}

// ---------------------------------------------------------------------------
// Table 4 — Connection setup
// ---------------------------------------------------------------------------

// Table4Cell is one connection-setup measurement.
type Table4Cell struct {
	Setup time.Duration
	Err   error
}

// Table4CellFor measures active-open latency with the passive peer already
// listening, averaged over several connections.
func Table4CellFor(org ulp.Org, net ulp.Net, model *costs.Model) Table4Cell {
	w := newWorld(ulp.Config{Org: org, Net: net, Costs: model})
	const conns = 8
	var total time.Duration
	err := exchange{budget: 5 * time.Minute,
		serve: func(t *kern.Thread, l stacks.Listener) error {
			for {
				if _, err := l.Accept(t); err != nil {
					return nil
				}
			}
		},
		client: func(t *kern.Thread, dial func() (stacks.Conn, error)) error {
			for i := 0; i < conns; i++ {
				// Space the opens out so one measurement's server-side
				// completion work does not queue behind the next (the paper
				// measured isolated setups on idle machines).
				t.Sleep(25 * time.Millisecond)
				start := time.Duration(t.Now())
				// Leave the connection open; Table 4 isolates setup time.
				if _, err := dial(); err != nil {
					return err
				}
				total += time.Duration(t.Now()) - start
			}
			return nil
		},
	}.run(w)
	if err != nil {
		return Table4Cell{Err: err}
	}
	return Table4Cell{Setup: total / conns}
}

// Table4 measures every Grid row: cells[i] is Grid[i].
func Table4(model *costs.Model) (cells []Table4Cell) {
	for _, r := range Grid {
		cells = append(cells, Table4CellFor(r.Org, r.Net, model))
	}
	return cells
}

// Table4BreakdownRow is one component of the paper's decomposition of the
// user-level library's Ethernet setup cost (the 11.9 ms breakdown of §4),
// with the paper's value for it.
type Table4BreakdownRow struct {
	Component string
	Cost      time.Duration
	Paper     float64 // ms
}

// Table4Breakdown decomposes the measured user-level-library Ethernet setup
// cost the way the paper does: four components come directly from the cost
// model's charges; the first (time to the remote peer and back, including
// the registry's un-optimized device access) is the measured remainder.
func Table4Breakdown(model *costs.Model) []Table4BreakdownRow {
	m := model
	if m == nil {
		d := costs.Default()
		m = &d
	}
	total := Table4CellFor(ulp.OrgUserLib, ulp.Ethernet, m).Setup
	rpc := 2*m.MachIPCSend + 2*m.ContextSwitch
	outbound := m.RegistryPortAlloc + m.RegistryConnSetup
	remote := total - outbound - m.ChannelSetup - rpc - m.StateTransfer
	return []Table4BreakdownRow{
		{"remote peer and back (incl. registry device access)", remote, 4.6},
		{"non-overlapped outbound processing", outbound, 1.5},
		{"user channel setup with network I/O module", m.ChannelSetup, 3.4},
		{"application to server and back (Mach IPC)", rpc, 0.9},
		{"TCP state transfer to user level", m.StateTransfer, 1.4},
	}
}

// ---------------------------------------------------------------------------
// Table 5 — Packet demultiplexing tradeoffs
// ---------------------------------------------------------------------------

// Table5Result reports per-packet demultiplexing cost, software (LANCE) vs
// hardware (AN1 BQI). Following the paper's methodology, "copy and DMA
// costs are not included; the cost of device management code inherent to
// packet demultiplexing in the case of the AN1 is included."
type Table5Result struct {
	SoftwareDemux time.Duration // LANCE: kernel filter run + fixed demux work
	HardwareDemux time.Duration // AN1: BQI machinery bookkeeping
	Packets       int
}

// The paper's Table 5, µs per packet.
const (
	PaperSoftwareDemux = 52.0
	PaperHardwareDemux = 50.0
)

// Table5 measures both paths by observing receive-side CPU time per packet
// and subtracting the interrupt dispatch and (for the LANCE) programmed-I/O
// copy components.
func Table5(model *costs.Model) (Table5Result, error) {
	const packets = 64
	m := model
	if m == nil {
		d := costs.Default()
		m = &d
	}

	perPacketCPU := func(net ulp.Net) (time.Duration, int, error) {
		w := newWorld(ulp.Config{Org: ulp.OrgUserLib, Net: net, Costs: model})
		n1, n2 := w.Node(0), w.Node(1)
		krn2 := n2.Host.NewDomain("bench-kernel", true)
		spec := filter.Spec{
			LinkHdrLen: n2.Mod.Device().HdrLen(), Proto: ipv4.ProtoTCP,
			LocalIP: n2.IP, LocalPort: 7777,
			RemoteIP: n1.IP, RemotePort: 8888,
		}
		tmpl := netio.Template{LinkSrc: n2.Mod.Device().Addr(), Type: link.TypeIPv4}
		_, ch, err := n2.Mod.CreateChannel(krn2, spec, tmpl, packets+8)
		if err != nil {
			return 0, 0, err
		}
		baseline := n2.Host.CPU.Busy()
		frameLen := 0
		n1.Host.NewDomain("tx-dom", true).Spawn("tx", func(t *kern.Thread) {
			for i := 0; i < packets; i++ {
				b := buildTCPFrame(n1, n2, ch.BQI(), 8888, 7777, 64)
				frameLen = b.Len()
				n1.Mod.SendKernel(t, b)
			}
		})
		// No consumer thread: packets pool in the ring under a single
		// batched notification, so the measured CPU is the pure delivery
		// path with no wakeups or reader switches.
		w.Run(time.Second)
		if ch.Pending() < packets {
			return 0, frameLen, fmt.Errorf("table5: delivered %d/%d", ch.Pending(), packets)
		}
		perPkt := (n2.Host.CPU.Busy() - baseline) / time.Duration(packets)
		return perPkt, frameLen, nil
	}

	sw, frameLen, err := perPacketCPU(ulp.Ethernet)
	if err != nil {
		return Table5Result{}, err
	}
	// Subtract interrupt dispatch, the PIO staging copy, and the move into
	// the shared region ("copy and DMA costs are not included"). The LANCE
	// pads short frames to its 60-byte minimum.
	pioLen := frameLen
	if min := link.EthHeaderLen + link.EthMinPayload; pioLen < min {
		pioLen = min
	}
	sw -= m.InterruptDispatch + m.LancePIO(pioLen) + m.Copy(pioLen)

	hwTotal, _, err := perPacketCPU(ulp.AN1)
	if err != nil {
		return Table5Result{}, err
	}
	hw := hwTotal - m.InterruptDispatch // DMA costs no CPU

	return Table5Result{SoftwareDemux: sw, HardwareDemux: hw, Packets: packets}, nil
}

// buildTCPFrame assembles a syntactically valid TCP/IP frame between bench
// endpoints (demultiplexing benchmarks need headers, not a live
// connection).
func buildTCPFrame(from, to *ulp.Node, bqi uint16, srcPort, dstPort uint16, payload int) *pkt.Buf {
	hdrLen := to.Mod.Device().HdrLen()
	b := pkt.New(hdrLen+ipv4.HeaderLen+tcp.HeaderLen, payload)
	th := tcp.Header{SrcPort: srcPort, DstPort: dstPort, Flags: tcp.FlagACK, Window: 1024}
	th.Encode(b, from.IP, to.IP)
	ih := ipv4.Header{TTL: 64, Proto: ipv4.ProtoTCP, Src: from.IP, Dst: to.IP}
	ih.Encode(b)
	if hdrLen == link.AN1HeaderLen {
		lh := link.AN1Header{Dst: to.Mod.Device().Addr(), Src: from.Mod.Device().Addr(), BQI: bqi, Type: link.TypeIPv4}
		lh.Encode(b)
	} else {
		lh := link.EthHeader{Dst: to.Mod.Device().Addr(), Src: from.Mod.Device().Addr(), Type: link.TypeIPv4}
		lh.Encode(b)
	}
	return b
}
