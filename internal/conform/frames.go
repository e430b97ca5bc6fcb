package conform

import (
	"encoding/binary"
	"time"

	"ulp/internal/ipv4"
	"ulp/internal/link"
	"ulp/internal/tcp"
)

// onFrame parses a raw transmitted frame and, when it encapsulates an
// unfragmented IPv4/TCP segment, applies the flow invariants. The parser
// works on the raw bytes directly — it never touches the packet pool, so
// attaching the checker cannot perturb pool-leak accounting in tests.
func (k *Checker) onFrame(at time.Duration, w []byte) {
	ip, ok := ipPayload(w)
	if !ok {
		return
	}
	d, ok := ipv4.Peek(ip)
	if !ok || d.Fragment() || d.Proto != ipv4.ProtoTCP {
		return // a fragment's partial TCP segment proves nothing
	}
	// The segment ends where the datagram's total length says, short of any
	// link padding.
	ihl := len(ip) - len(d.Body)
	total := int(binary.BigEndian.Uint16(ip[2:4]))
	if total < ihl || total > len(ip) {
		return
	}
	seg := d.Body[:total-ihl]
	if len(seg) < tcp.HeaderLen {
		return
	}
	off := int(seg[12]>>4) * 4
	if off < tcp.HeaderLen || off > len(seg) {
		return
	}
	srcPort, dstPort, _ := ipv4.Ports(seg)
	src := tcp.Endpoint{IP: d.Src, Port: srcPort}
	dst := tcp.Endpoint{IP: d.Dst, Port: dstPort}
	seq := tcp.Seq(binary.BigEndian.Uint32(seg[4:8]))
	ack := tcp.Seq(binary.BigEndian.Uint32(seg[8:12]))
	flags := seg[13]
	k.checkSegment(at, src, dst, seq, ack, flags, len(seg)-off)
}

// ipPayload sniffs the link encapsulation (Ethernet II or AN1) and returns
// the IPv4 datagram bytes. Both framings carry dst(6) src(6) addresses; the
// EtherType closes the header, at offset 12 for Ethernet and 16 for AN1
// (after the two BQI words), so probing for TypeIPv4 followed by an IPv4
// version nibble disambiguates them without out-of-band knowledge of the
// segment flavor.
func ipPayload(w []byte) ([]byte, bool) {
	for _, hl := range [...]int{link.EthHeaderLen, link.AN1HeaderLen} {
		if et, _ := link.TypeAt(w, hl); et == link.TypeIPv4 && len(w) >= hl+ipv4.HeaderLen && w[hl]>>4 == 4 {
			return w[hl:], true
		}
	}
	return nil, false
}
