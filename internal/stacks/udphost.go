package stacks

import (
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/pkt"
	"ulp/internal/sim"
	"ulp/internal/udp"
)

// UDPHost is the datagram service of a host's protocol stack, shared by the
// organizations (the monolithic stacks run it kernel-side; the reqresp
// example and the registry-bypass ablation are built on it).
type UDPHost struct {
	nif   *Netif
	table *udp.Table
	conds map[uint16]*sim.Cond
}

// NewUDPHost creates the service over a network interface.
func NewUDPHost(nif *Netif) *UDPHost {
	return &UDPHost{nif: nif, table: udp.NewTable(), conds: make(map[uint16]*sim.Cond)}
}

// UDPSock is one bound endpoint with blocking receive.
type UDPSock struct {
	h    *UDPHost
	sock *udp.Sock
	cond *sim.Cond
}

// Bind claims a local port.
func (u *UDPHost) Bind(t *kern.Thread, port uint16) (*UDPSock, error) {
	t.Trap()
	s, err := u.table.Bind(udp.Endpoint{IP: u.nif.IP, Port: port}, 0)
	if err != nil {
		return nil, ErrPortInUse
	}
	c := u.nif.sim.NewCond()
	u.conds[port] = c
	return &UDPSock{h: u, sock: s, cond: c}, nil
}

// Input delivers an inbound datagram (called from the organization's input
// thread with the IP header already validated).
func (u *UDPHost) Input(t *kern.Thread, h ipv4.Header, data []byte) {
	c := &t.Dom.Host.Cost
	seg := pkt.FromBytes(0, data)
	defer seg.Release()
	uh, err := udp.Decode(seg, h.Src, h.Dst)
	if err != nil {
		return
	}
	t.Compute(c.UDPPacket + c.Checksum(seg.Len()))
	dst := udp.Endpoint{IP: h.Dst, Port: uh.DstPort}
	d := udp.Datagram{
		From:    udp.Endpoint{IP: h.Src, Port: uh.SrcPort},
		Payload: append([]byte(nil), seg.Bytes()...),
	}
	if u.table.Deliver(dst, d) {
		if cond := u.conds[uh.DstPort]; cond != nil {
			if cond.Waiters() > 0 {
				t.Compute(c.ContextSwitch)
			}
			cond.Signal()
		}
	}
	// Port unreachable would be ICMP; this stack drops silently, as the
	// paper's simplified IP library does.
}

// Recv blocks for the next datagram.
func (s *UDPSock) Recv(t *kern.Thread) udp.Datagram {
	t.Trap()
	for {
		if d, ok := s.sock.Recv(); ok {
			t.Compute(t.Cost().Copy(len(d.Payload)))
			return d
		}
		s.cond.Wait(t.Proc)
	}
}

// SendTo transmits a datagram, fragmenting when it exceeds the link MTU.
func (s *UDPSock) SendTo(t *kern.Thread, dst udp.Endpoint, payload []byte) error {
	c := t.Cost()
	t.Trap()
	t.Compute(c.Copy(len(payload)) + c.UDPPacket + c.Checksum(len(payload)))
	b := pkt.FromBytes(s.h.nif.Headroom()+udp.HeaderLen, payload)
	uh := udp.Header{SrcPort: s.sock.Local.Port, DstPort: dst.Port}
	uh.Encode(b, s.h.nif.IP, dst.IP)
	frags, err := s.h.nif.WrapIPFragments(b, ipv4.ProtoUDP, dst.IP)
	if err != nil {
		return err
	}
	for _, f := range frags {
		s.h.nif.Resolve(t, f, dst.IP, 0)
	}
	return nil
}

// Close releases the port.
func (s *UDPSock) Close(t *kern.Thread) {
	t.Trap()
	s.h.table.Unbind(s.sock.Local.Port)
	delete(s.h.conds, s.sock.Local.Port)
}
