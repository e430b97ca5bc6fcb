package stacks

import (
	"fmt"
	"time"

	"ulp/internal/arp"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/netio"
	"ulp/internal/pkt"
	"ulp/internal/sim"
)

// Netif wires an IP address to a network I/O module: IP encapsulation and
// fragmentation/reassembly, ARP resolution with a pending queue, and link
// framing for either device type. All organizations share it; only the
// transmit entry (kernel path vs capability path) differs.
type Netif struct {
	Mod *netio.Module
	IP  ipv4.Addr
	HW  link.Addr
	ids ipv4.IDGen
	ARP *arp.Cache
	Rsm *ipv4.Reassembler
	an1 bool
	sim *sim.Sim
}

// NewNetif builds the interface wiring for a module.
func NewNetif(s *sim.Sim, mod *netio.Module, ip ipv4.Addr) *Netif {
	_, an1 := mod.Device().(*netdev.AN1)
	return &Netif{
		Mod: mod,
		IP:  ip,
		HW:  mod.Device().Addr(),
		ARP: arp.NewCache(mod.Device().Addr(), ip, 1200, 2, 40), // 10 min, 1 s and 20 s at 500 ms ticks
		Rsm: ipv4.NewReassembler(60),                            // 30 s at 500 ms ticks
		an1: an1,
		sim: s,
	}
}

// IsAN1 reports whether the underlying device demultiplexes in hardware.
func (n *Netif) IsAN1() bool { return n.an1 }

// MSS returns the TCP maximum segment size for this link.
func (n *Netif) MSS() int { return n.Mod.Device().MTU() - ipv4.HeaderLen - 20 }

// Headroom returns the buffer headroom needed below the TCP/UDP header.
func (n *Netif) Headroom() int { return n.Mod.Device().HdrLen() + ipv4.HeaderLen }

// Now returns the ARP/reassembly coarse clock (500 ms units).
func (n *Netif) Now() uint64 {
	return uint64(time.Duration(n.sim.Now()) / (500 * time.Millisecond))
}

// Expire is the interface's 500 ms housekeeping: it drops partial datagrams
// past their deadline and releases those held for a silent destination.
func (n *Netif) Expire() {
	now := n.Now()
	n.Rsm.Expire(now)
	n.ARP.Expire(now)
}

// SendTCP prepends the IP header onto a TCP segment and sends it to dst
// through the kernel path (Resolve), advertising advBQI.
func (n *Netif) SendTCP(t *kern.Thread, seg *pkt.Buf, dst ipv4.Addr, advBQI uint16) {
	h := ipv4.Header{ID: n.ids.Next(), DF: true, TTL: 64, Proto: ipv4.ProtoTCP, Src: n.IP, Dst: dst}
	h.Encode(seg)
	n.Resolve(t, seg, dst, advBQI)
}

// WrapIPFragments encapsulates a datagram that may exceed the MTU (UDP
// path), returning ready-to-frame IP packets.
func (n *Netif) WrapIPFragments(payload *pkt.Buf, proto uint8, dst ipv4.Addr) ([]*pkt.Buf, error) {
	h := ipv4.Header{
		ID: n.ids.Next(), TTL: 64,
		Proto: proto, Src: n.IP, Dst: dst,
	}
	return ipv4.Fragment(h, payload, n.Mod.Device().MTU(), n.Mod.Device().HdrLen())
}

// Frame prepends the link header of type typ for a resolved destination,
// in the device's format. On the AN1, bqi is the peer's negotiated buffer
// queue index (0 = its kernel default) and advBQI advertises ours; the
// Ethernet header has no such fields and they are ignored.
func (n *Netif) Frame(b *pkt.Buf, dstHW link.Addr, typ link.EtherType, bqi, advBQI uint16) {
	if n.an1 {
		h := link.AN1Header{Dst: dstHW, Src: n.HW, BQI: bqi, AdvBQI: advBQI, Type: typ}
		h.Encode(b)
		return
	}
	h := link.EthHeader{Dst: dstHW, Src: n.HW, Type: typ}
	h.Encode(b)
}

// Resolve sends ippkt to dst through the kernel path, resolving dst's link
// address first if needed: a cache hit frames and transmits immediately; a
// miss queues the packet and broadcasts an ARP request. The frame is
// addressed to the peer's kernel queue (BQI zero) and, on the AN1,
// advertises advBQI, ours for the connection's data phase.
func (n *Netif) Resolve(t *kern.Thread, ippkt *pkt.Buf, dst ipv4.Addr, advBQI uint16) {
	if !ipv4.SameSubnet(n.IP, dst) {
		// No gateway functions (paper): off-subnet traffic is dropped.
		return
	}
	if hw, ok := n.ARP.Lookup(n.Now(), dst); ok {
		n.Frame(ippkt, hw, link.TypeIPv4, 0, advBQI)
		n.Mod.SendKernel(t, ippkt)
		return
	}
	ippkt.Meta.AdvBQI = advBQI // remember for transmission after resolution
	if n.ARP.Enqueue(n.Now(), dst, ippkt) {
		n.RequestARP(t, dst)
	}
}

// RequestARP broadcasts an ARP request for ip.
func (n *Netif) RequestARP(t *kern.Thread, ip ipv4.Addr) {
	n.txARP(t, n.ARP.MakeRequest(ip), link.Broadcast)
}

// txARP frames and transmits an ARP packet.
func (n *Netif) txARP(t *kern.Thread, p arp.Packet, dstHW link.Addr) {
	b := p.Encode(n.Mod.Device().HdrLen())
	n.Frame(b, dstHW, link.TypeARP, 0, 0)
	n.Mod.SendKernel(t, b)
}

// InputARP processes a received ARP packet (kernel side in every
// organization), replying and flushing newly deliverable queued packets.
func (n *Netif) InputARP(t *kern.Thread, b *pkt.Buf) {
	p, err := arp.Decode(b)
	if err != nil {
		return
	}
	reply, released := n.ARP.Input(n.Now(), p)
	if reply != nil {
		n.txARP(t, *reply, p.SenderHW)
	}
	for _, q := range released {
		hw, _ := n.ARP.Lookup(n.Now(), p.SenderIP)
		n.Frame(q, hw, link.TypeIPv4, 0, q.Meta.AdvBQI)
		n.Mod.SendKernel(t, q)
	}
}

// StripLink removes the link header of an inbound frame, returning its type
// and, on the AN1, the buffer queue index the sender advertises (0
// elsewhere).
func (n *Netif) StripLink(b *pkt.Buf) (typ link.EtherType, advBQI uint16, err error) {
	if n.an1 {
		h, err := link.DecodeAN1(b)
		return h.Type, h.AdvBQI, err
	}
	h, err := link.DecodeEth(b)
	return h.Type, 0, err
}

// String identifies the interface for diagnostics.
func (n *Netif) String() string {
	return fmt.Sprintf("%s(%s,%s)", n.Mod.Device().Name(), n.IP, n.HW)
}
