package registry

import (
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/trace"
)

// inputLoop is the registry's default-path receive thread: everything the
// per-connection demultiplexing did not claim arrives here — handshake
// segments, ARP, strays for transferred connections, and segments for
// nonexistent endpoints (answered with RST).
func (r *Server) inputLoop(t *kern.Thread) {
	c := &r.host.Cost
	for {
		b := r.rxq.Pop(t.Proc)
		t.Compute(c.ThreadSwitch)
		r.input(t, b)
	}
}

func (r *Server) input(t *kern.Thread, b *pkt.Buf) {
	// The frame dies here on every path: ARP replies and forwarded segments
	// are built in fresh buffers, reassembly and tcp.Conn.Input copy the
	// bytes they keep.
	defer b.Release()
	et, advBQI, err := r.nif.StripLink(b)
	if err != nil {
		return
	}
	switch et {
	case link.TypeARP:
		r.nif.InputARP(t, b, r.nif.Mod.SendKernel)
		return
	case link.TypeIPv4:
	default:
		return
	}
	h, data, ok := r.nif.InputIP(b)
	if !ok {
		return
	}
	switch h.Proto {
	case ipv4.ProtoTCP:
		r.inputTCP(t, h, data, advBQI)
	case ipv4.ProtoUDP:
		r.inputUDP(t, h, data)
	}
}

// inputUDP demultiplexes default-path datagrams to bound library
// end-points (the software fallback when BQIs cannot be negotiated).
func (r *Server) inputUDP(t *kern.Thread, h ipv4.Header, data []byte) {
	if len(data) < 4 {
		return
	}
	dstPort := uint16(data[2])<<8 | uint16(data[3])
	ub, ok := r.udpChannels[dstPort]
	if !ok {
		return // port unreachable: the simplified IP library drops
	}
	ub.ch.Inject(r.reframe(h, data))
}

// reframe rebuilds the frame a channel consumer expects around a
// default-path datagram's payload: the IP header re-encoded from h and a
// link header addressed to ourselves, so the library-side input path
// parses it like any frame the device delivered.
func (r *Server) reframe(h ipv4.Header, data []byte) *pkt.Buf {
	ih := ipv4.Header{ID: h.ID, TTL: h.TTL, Proto: h.Proto, Src: h.Src, Dst: h.Dst}
	fwd := pkt.FromBytes(r.nif.Headroom(), data)
	ih.Encode(fwd)
	r.nif.Frame(fwd, r.nif.HW, link.TypeIPv4, 0, 0)
	return fwd
}

func (r *Server) inputTCP(t *kern.Thread, h ipv4.Header, data []byte, advBQI uint16) {
	seg := pkt.FromBytes(0, data)
	defer seg.Release()
	th, err := tcp.Decode(seg, h.Src, h.Dst)
	if err != nil {
		return
	}
	local := tcp.Endpoint{IP: h.Dst, Port: th.DstPort}
	peer := tcp.Endpoint{IP: h.Src, Port: th.SrcPort}
	t.Compute(stacks.SegCost(r.host, seg.Len(), false))

	// Registry-owned pcb (handshaking or inherited)?
	if tc, ok := r.owned.LookupExact(local, peer); ok {
		hc := r.conns[tc]
		if hc != nil && advBQI != 0 {
			// Learn the peer's data-phase BQI from the link header.
			hc.peerBQI = advBQI
		}
		r.runConn(t, hc, func() { tc.Input(th, seg.Bytes()) })
		return
	}

	// Stray default-path segment of a transferred connection (e.g. a
	// retransmitted handshake ACK on the AN1): forward into its channel by
	// rebuilding the frame bytes the channel consumer expects.
	if xc, ok := r.transferred[tcp.FourTuple{Local: local, Peer: peer}]; ok {
		fwd := r.reframe(h, data)
		if ch := xc.cap.Chan(); ch != nil {
			ch.Inject(fwd)
		} else {
			fwd.Release() // the record outlived its channel (a sibling shard tore it down)
		}
		return
	}

	// SYN for a registered listener: clone a pcb and let the handshake
	// proceed; setup of the user channel happens before the SYN|ACK goes
	// out so the BQI can ride its link header.
	if l, ok := r.listeners[local.Port]; ok &&
		th.Flags&tcp.FlagSYN != 0 && th.Flags&(tcp.FlagACK|tcp.FlagRST) == 0 {
		if l.pending >= l.backlog {
			// Backlog full: drop the SYN deterministically instead of
			// growing hsConn state without bound under a SYN flood. The
			// legitimate client's retransmission retries once a slot
			// frees; the flood's segments die here.
			r.synDrops++
			if r.bus.Enabled() {
				r.bus.Emit(trace.Event{Kind: trace.ListenDrop, Node: r.host.Name,
					A: int64(local.Port), B: int64(l.pending)})
			}
			return
		}
		var ourBQI uint16
		if r.nif.IsAN1() {
			t.Compute(t.Cost().BQIReserve)
			bqi, err := r.nif.Mod.ReserveBQI(r.dom)
			if err != nil {
				return
			}
			ourBQI = bqi
		}
		hc := r.newConn()
		hc.opts, hc.owner, hc.l, hc.peerBQI, hc.ourBQI = l.opts, l.owner, l, advBQI, ourBQI
		tc := &hc.tc
		tc.Init(r.tcpConfig(l.opts), local, peer, tcp.Callbacks{})
		tc.SetISS(r.nextISS())
		r.attach(hc)
		tc.OpenListen()
		if err := r.owned.Insert(tc); err != nil {
			// Duplicate tuple: drop, and unwind everything attach and the
			// BQI reservation allocated — the wheel entry and ring index
			// would otherwise leak on every colliding SYN.
			delete(r.conns, tc)
			r.wheel.Drop(&hc.went)
			r.dropBQI(hc)
			return
		}
		l.pending++
		hc.inBacklog = true
		r.runConn(t, hc, func() { tc.Input(th, seg.Bytes()) })
		return
	}

	// No endpoint: reset. A shard only resets tuples it authoritatively
	// owns — a stray steered here because its owner shard is down must be
	// dropped, not answered: the connection it belongs to is alive in some
	// library, and an RST from a non-owner would kill it.
	if !r.fed.authoritative(r, local, peer) {
		return
	}
	if rst, rb := tcp.MakeRST(th, seg.Len(), r.nif.Headroom(), local, peer); rst != nil {
		r.nif.WrapIP(rb, ipv4.ProtoTCP, peer.IP)
		r.resolveAndSend(t, rb, peer.IP, 0, 0)
	}
}
