// Package link defines the byte-exact link-layer frame formats of the two
// simulated networks:
//
//   - Ethernet II (DIX) framing for the 10 Mb/s Ethernet: destination and
//     source station addresses plus an EtherType. As the paper notes, "the
//     link-level Ethernet header only identifies the station address and the
//     packet type", which is why software demultiplexing is required.
//   - AN1 framing for the 100 Mb/s DEC SRC AN1: Ethernet-style addressing
//     plus a 16-bit buffer queue index (BQI) carried in an otherwise unused
//     link-header field. The BQI indexes a table of receive rings in the
//     controller, providing protocol-independent hardware demultiplexing.
package link

import (
	"encoding/binary"
	"fmt"

	"ulp/internal/pkt"
)

// Addr is a 48-bit station address, shared by both networks (the AN1 driver
// in the paper encapsulates Ethernet-format datagrams).
type Addr [6]byte

// Broadcast is the all-stations address.
var Broadcast = Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address in the usual colon-separated hex form.
func (a Addr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// IsBroadcast reports whether a is the broadcast address.
func (a Addr) IsBroadcast() bool { return a == Broadcast }

// EtherType identifies the encapsulated protocol.
type EtherType uint16

// EtherTypes used by this stack.
const (
	TypeIPv4 EtherType = 0x0800
	TypeARP  EtherType = 0x0806
	// TypeRaw is used by the Table 1 mechanism micro-benchmark, which
	// exchanges data over the raw mechanisms with no higher-level protocol.
	TypeRaw EtherType = 0x88b5 // IEEE local experimental
)

// Frame header sizes and payload limits.
const (
	EthHeaderLen = 14
	// AN1HeaderLen covers dst(6) src(6) bqi(2) advbqi(2) type(2). BQI
	// selects the destination receive ring; AdvBQI is the otherwise unused
	// field the registry servers use to exchange data-phase BQIs during
	// connection setup ("it then inserts the BQI into an unused field in
	// the AN1 link header which is extracted by the remote server").
	AN1HeaderLen = 18

	// EthMTU is the maximum Ethernet payload.
	EthMTU = 1500
	// EthMinPayload is the minimum payload (frames are padded to 60 bytes
	// before the FCS).
	EthMinPayload = 46

	// AN1EncapMTU is the AN1 payload limit with the paper's driver, which
	// "encapsulates data into an Ethernet datagram and restricts network
	// transmissions to 1500-byte packets".
	AN1EncapMTU = 1500
	// AN1MaxMTU is the hardware limit ("maximum sized AN1 packets ... can
	// be as large as 64K bytes"), available as an extension/ablation.
	AN1MaxMTU = 65535
)

// TypeAt reads the EtherType that closes a link header of hdrLen bytes at
// the start of frame, where both framings keep it; ok is false when the
// frame is shorter than the header.
func TypeAt(frame []byte, hdrLen int) (et EtherType, ok bool) {
	if len(frame) < hdrLen {
		return 0, false
	}
	return EtherType(binary.BigEndian.Uint16(frame[hdrLen-2:])), true
}

// EthHeader is a decoded Ethernet II header.
type EthHeader struct {
	Dst, Src Addr
	Type     EtherType
}

// Encode prepends the header onto b.
func (h *EthHeader) Encode(b *pkt.Buf) {
	w := b.Prepend(EthHeaderLen)
	copy(w[0:6], h.Dst[:])
	copy(w[6:12], h.Src[:])
	binary.BigEndian.PutUint16(w[12:14], uint16(h.Type))
}

// DecodeEth strips and decodes an Ethernet header from b.
func DecodeEth(b *pkt.Buf) (EthHeader, error) {
	if b.Len() < EthHeaderLen {
		return EthHeader{}, fmt.Errorf("link: short ethernet frame (%d bytes)", b.Len())
	}
	w := b.Strip(EthHeaderLen)
	var h EthHeader
	copy(h.Dst[:], w[0:6])
	copy(h.Src[:], w[6:12])
	h.Type = EtherType(binary.BigEndian.Uint16(w[12:14]))
	return h, nil
}

// PeekEth decodes without consuming, for in-kernel demultiplexers that must
// leave the frame intact for delivery.
func PeekEth(b *pkt.Buf) (EthHeader, error) {
	if b.Len() < EthHeaderLen {
		return EthHeader{}, fmt.Errorf("link: short ethernet frame (%d bytes)", b.Len())
	}
	w := b.Bytes()
	var h EthHeader
	copy(h.Dst[:], w[0:6])
	copy(h.Src[:], w[6:12])
	h.Type = EtherType(binary.BigEndian.Uint16(w[12:14]))
	return h, nil
}

// AN1Header is a decoded AN1 link header. BQI rides in the link header so
// the controller can demultiplex without understanding higher layers.
type AN1Header struct {
	Dst, Src Addr
	BQI      uint16
	// AdvBQI advertises the sender's own data-phase receive ring during
	// connection setup; zero otherwise.
	AdvBQI uint16
	Type   EtherType
}

// Encode prepends the header onto b.
func (h *AN1Header) Encode(b *pkt.Buf) {
	w := b.Prepend(AN1HeaderLen)
	copy(w[0:6], h.Dst[:])
	copy(w[6:12], h.Src[:])
	binary.BigEndian.PutUint16(w[12:14], h.BQI)
	binary.BigEndian.PutUint16(w[14:16], h.AdvBQI)
	binary.BigEndian.PutUint16(w[16:18], uint16(h.Type))
}

// DecodeAN1 strips and decodes an AN1 header from b.
func DecodeAN1(b *pkt.Buf) (AN1Header, error) {
	if b.Len() < AN1HeaderLen {
		return AN1Header{}, fmt.Errorf("link: short AN1 frame (%d bytes)", b.Len())
	}
	w := b.Strip(AN1HeaderLen)
	var h AN1Header
	copy(h.Dst[:], w[0:6])
	copy(h.Src[:], w[6:12])
	h.BQI = binary.BigEndian.Uint16(w[12:14])
	h.AdvBQI = binary.BigEndian.Uint16(w[14:16])
	h.Type = EtherType(binary.BigEndian.Uint16(w[16:18]))
	return h, nil
}

// PeekAN1 decodes without consuming.
func PeekAN1(b *pkt.Buf) (AN1Header, error) {
	if b.Len() < AN1HeaderLen {
		return AN1Header{}, fmt.Errorf("link: short AN1 frame (%d bytes)", b.Len())
	}
	w := b.Bytes()
	var h AN1Header
	copy(h.Dst[:], w[0:6])
	copy(h.Src[:], w[6:12])
	h.BQI = binary.BigEndian.Uint16(w[12:14])
	h.AdvBQI = binary.BigEndian.Uint16(w[14:16])
	h.Type = EtherType(binary.BigEndian.Uint16(w[16:18]))
	return h, nil
}

// MakeAddr builds a deterministic station address from a small host index,
// used when constructing simulated networks.
func MakeAddr(index int) Addr {
	return Addr{0x08, 0x00, 0x2b, 0x00, byte(index >> 8), byte(index)} // DEC OUI
}
