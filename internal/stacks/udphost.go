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
	socks map[uint16]*UDPSock // by bound port
}

// NewUDPHost creates the service over a network interface.
func NewUDPHost(nif *Netif) *UDPHost {
	return &UDPHost{nif: nif, socks: make(map[uint16]*UDPSock)}
}

// udpQueueLimit is how many datagrams a bound port holds unread; one
// arriving at a full queue is dropped.
const udpQueueLimit = 64

// UDPSock is one bound endpoint with blocking receive.
type UDPSock struct {
	h     *UDPHost
	port  uint16
	queue []udp.Datagram
	cond  *sim.Cond
}

// Bind claims a local port.
func (u *UDPHost) Bind(t *kern.Thread, port uint16) (*UDPSock, error) {
	t.Trap()
	if u.socks[port] != nil {
		return nil, ErrPortInUse
	}
	s := &UDPSock{h: u, port: port, cond: u.nif.sim.NewCond()}
	u.socks[port] = s
	return s, nil
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
	s := u.socks[uh.DstPort]
	if s == nil {
		// Port unreachable would be ICMP; this stack drops silently, as the
		// paper's simplified IP library does.
		return
	}
	if len(s.queue) < udpQueueLimit {
		s.queue = append(s.queue, udp.Datagram{
			From:    udp.Endpoint{IP: h.Src, Port: uh.SrcPort},
			Payload: append([]byte(nil), seg.Bytes()...),
		})
	}
	// A full queue drops the datagram but still wakes the reader.
	if s.cond.Waiters() > 0 {
		t.Compute(c.ContextSwitch)
	}
	s.cond.Signal()
}

// Recv blocks for the next datagram.
func (s *UDPSock) Recv(t *kern.Thread) udp.Datagram {
	t.Trap()
	for len(s.queue) == 0 {
		s.cond.Wait(t.Proc)
	}
	d := s.queue[0]
	s.queue = s.queue[1:]
	t.Compute(t.Cost().Copy(len(d.Payload)))
	return d
}

// SendTo transmits a datagram, fragmenting when it exceeds the link MTU.
func (s *UDPSock) SendTo(t *kern.Thread, dst udp.Endpoint, payload []byte) error {
	c := t.Cost()
	t.Trap()
	t.Compute(c.Copy(len(payload)) + c.UDPPacket + c.Checksum(len(payload)))
	b := pkt.FromBytes(s.h.nif.Headroom()+udp.HeaderLen, payload)
	uh := udp.Header{SrcPort: s.port, DstPort: dst.Port}
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

// Close releases the port, if s still holds it: a second Close after the
// port was bound again leaves the new socket bound.
func (s *UDPSock) Close(t *kern.Thread) {
	t.Trap()
	if s.h.socks[s.port] == s {
		delete(s.h.socks, s.port)
	}
}
