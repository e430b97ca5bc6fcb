package registry

import (
	"ulp/internal/ctl"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/trace"
)

// inputUDP demultiplexes default-path datagrams to bound library end-points
// (the software fallback when BQIs cannot be negotiated). On the AN1 this is
// the common case: "the hardware packet demultiplexing mechanism is difficult
// to exploit because there is no separate connection setup phase that can
// negotiate the BQIs" — so datagrams arrive at BQI zero and are
// demultiplexed in software here, by the module's endpoint table.
func (r *Server) inputUDP(t *kern.Thread, h ipv4.Header, data []byte) {
	_, dstPort, ok := ipv4.Ports(data)
	if !ok {
		return
	}
	cap := r.nif.Mod.Endpoint(netio.Template{Proto: ipv4.ProtoUDP, LocalIP: r.nif.IP, LocalPort: dstPort})
	if cap == nil {
		return // port unreachable: the simplified IP library drops
	}
	r.forward(cap, h, data)
}

// forward delivers a default-path packet into the channel cap grants,
// rebuilt as the frame a channel consumer expects: the IP header re-encoded
// from h and a link header addressed to ourselves, so the library-side input
// path parses it like any frame the device delivered.
func (r *Server) forward(cap *netio.Capability, h ipv4.Header, data []byte) {
	ih := ipv4.Header{ID: h.ID, TTL: h.TTL, Proto: h.Proto, Src: h.Src, Dst: h.Dst}
	fwd := pkt.FromBytes(r.nif.Headroom(), data)
	ih.Encode(fwd)
	r.nif.Frame(fwd, r.nif.HW, link.TypeIPv4, 0, 0)
	cap.Chan().Inject(fwd)
}

// inputTCP is the pipeline's TCP hook (stacks.Hooks) for everything the
// per-connection demultiplexing did not claim: handshake segments, strays
// for handed-off connections, and segments for nonexistent endpoints.
func (r *Server) inputTCP(t *kern.Thread, s stacks.Segment) bool {
	// Registry-owned pcb (handshaking or inherited)?
	if hc, ok := r.conns[tcp.FourTuple{Local: s.Local, Peer: s.Peer}]; ok {
		if s.AdvBQI != 0 {
			// Learn the peer's data-phase BQI from the link header.
			hc.peerBQI = s.AdvBQI
		}
		r.runConn(t, hc, func() { hc.tc.Input(s.Hdr, s.Data) })
		return true
	}

	// Stray default-path segment of a handed-off connection (e.g. a
	// retransmitted handshake ACK on the AN1): forward into its channel by
	// rebuilding the frame bytes the channel consumer expects.
	if cap := r.nif.Mod.Endpoint(netio.Template{Proto: ipv4.ProtoTCP,
		LocalIP: s.Local.IP, LocalPort: s.Local.Port, RemoteIP: s.Peer.IP, RemotePort: s.Peer.Port}); cap != nil {
		r.forward(cap, s.IP, s.Raw)
		return true
	}

	// SYN for a registered listener: clone a pcb and let the handshake
	// proceed; setup of the user channel happens before the SYN|ACK goes
	// out so the BQI can ride its link header.
	if l := r.fed.listeners[s.Local.Port]; l != nil && s.OpensConnection() {
		if l.pending >= l.backlog {
			// Backlog full: drop the SYN deterministically instead of
			// growing hsConn state without bound under a SYN flood. The
			// legitimate client's retransmission retries once a slot
			// frees; the flood's segments die here.
			r.synDrops++
			if r.host.S.Bus.Enabled() {
				r.host.S.Bus.Emit(trace.Event{Kind: trace.ListenDrop, Node: r.host.Name,
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
		hc.owner, hc.l, hc.peerBQI, hc.ourBQI = l.owner, l, s.AdvBQI, ourBQI
		tc := &hc.tc
		tc.Init(stacks.TCPConfig(r.nif, l.opts), s.Local, s.Peer, tcp.Callbacks{})
		tc.SetISS(r.nextISS())
		if err := r.attach(hc, nil); err != nil {
			r.release(t, hc, ctl.Handoff{Err: err}) // a duplicate tuple: nobody to tell
			return true
		}
		hc.reply = l.accept
		tc.OpenListen()
		l.pending++
		r.runConn(t, hc, func() { tc.Input(s.Hdr, s.Data) })
		return true
	}

	// No endpoint: the pipeline resets it. The module's table holds every
	// endpoint on the host, whichever shard issued it, so no library holds a
	// connection on this tuple for the reset to kill.
	return false
}
