package core

import (
	"fmt"

	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/registry"
	"ulp/internal/stacks"
	"ulp/internal/udp"
)

// UDPConn is a user-level datagram end-point: a channel and capability
// obtained from the registry at bind time, after which datagram traffic
// bypasses the server entirely — the §5 connectionless/RPC case. Resolve
// is the address-binding phase; SendTo is the bypassed fast path; SendVia
// is the pre-binding relayed path (kept for the ablation that measures
// what bypassing saves).
type UDPConn struct {
	lib   *Library
	cap   *netio.Capability
	ch    *netio.Channel
	local udp.Endpoint

	// peers maps resolved addresses from the binding phase.
	peers map[ipv4.Addr]link.Addr
	// queue holds datagrams parsed but not yet consumed.
	queue []udp.Datagram
}

// BindUDP allocates a datagram end-point through the registry.
func (l *Library) BindUDP(t *kern.Thread, port uint16) (*UDPConn, error) {
	t.Compute(t.Cost().ProcCall)
	reply, err := l.callRegistry(t, kern.Msg{Op: "bind-udp", Body: registry.BindUDPReq{Port: port, Owner: l.app}})
	if err != nil {
		return nil, err
	}
	ho, ok := reply.Body.(registry.UDPHandoff)
	if !ok {
		return nil, stacks.ErrClosed
	}
	if ho.Err != nil {
		return nil, ho.Err
	}
	return &UDPConn{
		lib:   l,
		cap:   ho.Cap,
		ch:    ho.Channel,
		local: udp.Endpoint{IP: l.nif.IP, Port: port},
		peers: make(map[ipv4.Addr]link.Addr),
	}, nil
}

// Resolve performs the address-binding phase for a peer. Subsequent
// SendTo calls to that peer bypass the registry.
func (u *UDPConn) Resolve(t *kern.Thread, ip ipv4.Addr) error {
	if _, ok := u.peers[ip]; ok {
		return nil
	}
	t.Compute(t.Cost().ProcCall)
	reply, err := u.lib.callRegistry(t, kern.Msg{Op: "resolve", Body: registry.ResolveReq{IP: ip}})
	if err != nil {
		return err
	}
	rr, ok := reply.Body.(registry.ResolveReply)
	if !ok {
		return stacks.ErrClosed
	}
	if rr.Err != nil {
		return rr.Err
	}
	u.peers[ip] = rr.HW
	return nil
}

// maxDatagram returns the largest payload a single link frame carries (the
// library path does not fragment; the paper's request-response workloads
// are small).
func (u *UDPConn) maxDatagram() int {
	return u.lib.nif.Mod.Device().MTU() - ipv4.HeaderLen - udp.HeaderLen
}

// buildFrame assembles the complete link frame for a datagram.
func (u *UDPConn) buildFrame(dst udp.Endpoint, hw link.Addr, payload []byte) *pkt.Buf {
	nif := u.lib.nif
	b := pkt.FromBytes(nif.Headroom()+udp.HeaderLen, payload)
	uh := udp.Header{SrcPort: u.local.Port, DstPort: dst.Port}
	uh.Encode(b, u.local.IP, dst.IP)
	ih := ipv4.Header{ID: u.lib.ids.Next(), DF: true, TTL: 64, Proto: ipv4.ProtoUDP, Src: u.local.IP, Dst: dst.IP}
	ih.Encode(b)
	nif.Frame(b, hw, link.TypeIPv4, 0, 0)
	return b
}

// SendTo transmits a datagram on the bypassed fast path; the peer must
// have been resolved (implicitly resolving on first use).
func (u *UDPConn) SendTo(t *kern.Thread, dst udp.Endpoint, payload []byte) error {
	if len(payload) > u.maxDatagram() {
		return fmt.Errorf("core: datagram %d exceeds link maximum %d", len(payload), u.maxDatagram())
	}
	hw, ok := u.peers[dst.IP]
	if !ok {
		if err := u.Resolve(t, dst.IP); err != nil {
			return err
		}
		hw = u.peers[dst.IP]
	}
	c := t.Cost()
	t.Compute(c.ProcCall + c.UDPPacket + c.Checksum(len(payload)) + c.SockbufOp)
	return u.lib.mod.Send(t, u.cap, u.buildFrame(dst, hw, payload))
}

// SendVia relays a datagram through the registry — the pre-binding path a
// dedicated-server organization pays on every send. The RPC ablation
// measures SendTo against it.
func (u *UDPConn) SendVia(t *kern.Thread, dst udp.Endpoint, payload []byte) error {
	if len(payload) > u.maxDatagram() {
		return fmt.Errorf("core: datagram %d exceeds link maximum %d", len(payload), u.maxDatagram())
	}
	hw, ok := u.peers[dst.IP]
	if !ok {
		if err := u.Resolve(t, dst.IP); err != nil {
			return err
		}
		hw = u.peers[dst.IP]
	}
	c := t.Cost()
	t.Compute(c.ProcCall + c.UDPPacket + c.Checksum(len(payload)) + c.SockbufOp)
	_, err := u.lib.callRegistry(t, kern.Msg{
		Op:   "udp-send",
		Size: len(payload),
		Body: registry.UDPSendReq{SrcPort: u.local.Port, Dst: dst.IP, Frame: u.buildFrame(dst, hw, payload)},
	})
	return err
}

// Recv blocks for the next datagram.
func (u *UDPConn) Recv(t *kern.Thread) udp.Datagram {
	c := t.Cost()
	for len(u.queue) == 0 {
		batch := u.ch.Wait(t)
		for _, b := range batch {
			if d, ok := u.parse(b); ok {
				t.Compute(c.UDPPacket + c.Checksum(len(d.Payload)))
				u.queue = append(u.queue, d)
			}
			// parse copied the payload it kept; the frame dies here, so
			// the pool (and a zero-copy channel's lien) can recycle it.
			b.Release()
		}
	}
	d := u.queue[0]
	u.queue = u.queue[1:]
	t.Compute(c.Copy(len(d.Payload)))
	return d
}

// parse decodes a channel frame into a datagram.
func (u *UDPConn) parse(b *pkt.Buf) (udp.Datagram, bool) {
	if _, _, err := u.lib.nif.StripLink(b); err != nil {
		return udp.Datagram{}, false
	}
	ih, err := ipv4.Decode(b)
	if err != nil || ih.Proto != ipv4.ProtoUDP || ih.Dst != u.local.IP {
		return udp.Datagram{}, false
	}
	uh, err := udp.Decode(b, ih.Src, ih.Dst)
	if err != nil {
		return udp.Datagram{}, false
	}
	return udp.Datagram{
		From:    udp.Endpoint{IP: ih.Src, Port: uh.SrcPort},
		Payload: append([]byte(nil), b.Bytes()...),
	}, true
}

// Close releases the end-point.
func (u *UDPConn) Close(t *kern.Thread) {
	t.Compute(t.Cost().ProcCall)
	u.lib.svcDefault().Send(t, kern.Msg{Op: "unbind-udp", Body: registry.UnbindUDPReq{Port: u.local.Port, Cap: u.cap}})
}
