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

// inputTCP is the pipeline's TCP hook (stacks.Hooks) for everything the
// per-connection demultiplexing did not claim: handshake segments, strays
// for transferred connections, and segments for nonexistent endpoints.
func (r *Server) inputTCP(t *kern.Thread, s stacks.Segment) bool {
	// Registry-owned pcb (handshaking or inherited)?
	if tc, ok := r.owned.LookupExact(s.Local, s.Peer); ok {
		hc := r.conns[tc]
		if hc != nil && s.AdvBQI != 0 {
			// Learn the peer's data-phase BQI from the link header.
			hc.peerBQI = s.AdvBQI
		}
		r.runConn(t, hc, func() { tc.Input(s.Hdr, s.Data) })
		return true
	}

	// Stray default-path segment of a transferred connection (e.g. a
	// retransmitted handshake ACK on the AN1): forward into its channel by
	// rebuilding the frame bytes the channel consumer expects.
	if xc, ok := r.transferred[tcp.FourTuple{Local: s.Local, Peer: s.Peer}]; ok {
		fwd := r.reframe(s.IP, s.Raw)
		if ch := xc.cap.Chan(); ch != nil {
			ch.Inject(fwd)
		} else {
			fwd.Release() // the record outlived its channel (a sibling shard tore it down)
		}
		return true
	}

	// SYN for a registered listener: clone a pcb and let the handshake
	// proceed; setup of the user channel happens before the SYN|ACK goes
	// out so the BQI can ride its link header.
	if l, ok := r.listeners[s.Local.Port]; ok && s.OpensConnection() {
		if l.pending >= l.backlog {
			// Backlog full: drop the SYN deterministically instead of
			// growing hsConn state without bound under a SYN flood. The
			// legitimate client's retransmission retries once a slot
			// frees; the flood's segments die here.
			r.synDrops++
			if r.bus.Enabled() {
				r.bus.Emit(trace.Event{Kind: trace.ListenDrop, Node: r.host.Name,
					A: int64(s.Local.Port), B: int64(l.pending)})
			}
			return true
		}
		var ourBQI uint16
		if r.nif.IsAN1() {
			t.Compute(t.Cost().BQIReserve)
			bqi, err := r.nif.Mod.ReserveBQI(r.dom)
			if err != nil {
				return true
			}
			ourBQI = bqi
		}
		hc := r.newConn()
		hc.opts, hc.owner, hc.l, hc.peerBQI, hc.ourBQI = l.opts, l.owner, l, s.AdvBQI, ourBQI
		tc := &hc.tc
		tc.Init(stacks.TCPConfig(r.nif, l.opts), s.Local, s.Peer, tcp.Callbacks{})
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
			return true
		}
		l.pending++
		hc.inBacklog = true
		r.runConn(t, hc, func() { tc.Input(s.Hdr, s.Data) })
		return true
	}

	// No endpoint: the pipeline resets it. A shard only resets tuples it
	// authoritatively owns — a stray steered here because its owner shard is
	// down must be dropped, not answered: the connection it belongs to is
	// alive in some library, and an RST from a non-owner would kill it.
	return !r.fed.authoritative(r, s.Local, s.Peer)
}
