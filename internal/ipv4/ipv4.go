// Package ipv4 implements the IPv4 layer used by all three protocol
// organizations: byte-exact header encode/decode with header checksums,
// fragmentation and hole-based reassembly, and identifier generation. As in
// the paper's library, gateway (forwarding) functions are not implemented:
// "our IP library does not implement the functions required for handling
// gateway traffic."
//
// The package is pure protocol logic: no time, no blocking, no costs. The
// organization shells drive it and charge the cost model.
package ipv4

import (
	"encoding/binary"
	"fmt"

	"ulp/internal/checksum"
	"ulp/internal/pkt"
)

// Addr is an IPv4 address.
type Addr [4]byte

// String formats the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports whether a is the unspecified address.
func (a Addr) IsZero() bool { return a == Addr{} }

// SameSubnet reports whether two addresses share the /24 prefix — the
// simulated networks are single segments, so this is the whole routing
// decision ("no gateway traffic").
func SameSubnet(a, b Addr) bool {
	return a[0] == b[0] && a[1] == b[1] && a[2] == b[2]
}

// Protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// HeaderLen is the size of a header without options; this stack never emits
// options but parses past them on receive.
const HeaderLen = 20

// Flag bits within the flags/fragment-offset field.
const (
	FlagDF = 0x4000 // don't fragment
	FlagMF = 0x2000 // more fragments
)

// MaxTotalLen is the largest datagram (16-bit total length).
const MaxTotalLen = 65535

// Header is a decoded IPv4 header.
type Header struct {
	TOS      uint8
	TotalLen int // header + payload, filled by Decode; ignored by Encode
	ID       uint16
	DF, MF   bool
	FragOff  int // byte offset (multiple of 8)
	TTL      uint8
	Proto    uint8
	Src, Dst Addr
	// Options holds raw option bytes on decode (padded to 32-bit multiple).
	Options []byte
}

// HdrLen returns the encoded header length including options.
func (h *Header) HdrLen() int { return HeaderLen + len(h.Options) }

// Encode prepends the header to the payload in b and fills in the header
// checksum. TotalLen is computed from the payload length.
func (h *Header) Encode(b *pkt.Buf) {
	if len(h.Options)%4 != 0 {
		panic("ipv4: options not 32-bit aligned")
	}
	hl := h.HdrLen()
	total := hl + b.Len()
	if total > MaxTotalLen {
		panic(fmt.Sprintf("ipv4: datagram too large (%d)", total))
	}
	w := b.Prepend(hl)
	w[0] = 0x40 | uint8(hl/4)
	w[1] = h.TOS
	binary.BigEndian.PutUint16(w[2:], uint16(total))
	binary.BigEndian.PutUint16(w[4:], h.ID)
	ff := uint16(h.FragOff / 8)
	if h.DF {
		ff |= FlagDF
	}
	if h.MF {
		ff |= FlagMF
	}
	binary.BigEndian.PutUint16(w[6:], ff)
	w[8] = h.TTL
	w[9] = h.Proto
	w[10], w[11] = 0, 0
	copy(w[12:16], h.Src[:])
	copy(w[16:20], h.Dst[:])
	copy(w[20:], h.Options)
	ck := checksum.Checksum(w[:hl])
	binary.BigEndian.PutUint16(w[10:], ck)
}

// Datagram is an IPv4 datagram read in place (Peek).
type Datagram struct {
	Proto    uint8
	Src, Dst Addr
	MF       bool // more fragments follow
	FragOff  int  // byte offset; nonzero for a later fragment
	// Body is the bytes past the header and its options, to the end of the
	// frame (link padding included).
	Body []byte
}

// Fragment reports whether the datagram is part of a larger one.
func (d *Datagram) Fragment() bool { return d.MF || d.FragOff != 0 }

// Peek reads the header of the IPv4 datagram that starts w, in place, for
// the demultiplexers and checkers that see a frame without taking it. It
// checks only what locating the body needs — version 4 and a header length
// that fits — and neither the checksum nor the total length, so a steering
// table accepts exactly what filter.Spec.Compile's predicates accept. ok is
// false for anything else.
func Peek(w []byte) (d Datagram, ok bool) {
	if len(w) < HeaderLen || w[0]>>4 != 4 {
		return d, false
	}
	hl := int(w[0]&0x0f) * 4
	if hl < HeaderLen || hl > len(w) {
		return d, false
	}
	ff := binary.BigEndian.Uint16(w[6:])
	return Datagram{
		Proto: w[9], Src: Addr(w[12:16]), Dst: Addr(w[16:20]),
		MF: ff&FlagMF != 0, FragOff: int(ff&0x1fff) * 8,
		Body: w[hl:],
	}, true
}

// Ports reads the source and destination ports that open a TCP or UDP
// header; ok is false when body is too short to hold them.
func Ports(body []byte) (src, dst uint16, ok bool) {
	if len(body) < 4 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint16(body), binary.BigEndian.Uint16(body[2:]), true
}

// Decode strips and validates a header from b, trimming the payload to the
// datagram's total length (link layers may have padded the frame).
func Decode(b *pkt.Buf) (Header, error) {
	if b.Len() < HeaderLen {
		return Header{}, fmt.Errorf("ipv4: short packet (%d bytes)", b.Len())
	}
	w := b.Bytes()
	if w[0]>>4 != 4 {
		return Header{}, fmt.Errorf("ipv4: bad version %d", w[0]>>4)
	}
	hl := int(w[0]&0x0f) * 4
	if hl < HeaderLen || hl > b.Len() {
		return Header{}, fmt.Errorf("ipv4: bad header length %d", hl)
	}
	if !checksum.Verify(w[:hl]) {
		return Header{}, fmt.Errorf("ipv4: header checksum mismatch")
	}
	total := int(binary.BigEndian.Uint16(w[2:]))
	if total < hl || total > b.Len() {
		return Header{}, fmt.Errorf("ipv4: bad total length %d (frame %d)", total, b.Len())
	}
	var h Header
	h.TOS = w[1]
	h.TotalLen = total
	h.ID = binary.BigEndian.Uint16(w[4:])
	ff := binary.BigEndian.Uint16(w[6:])
	h.DF = ff&FlagDF != 0
	h.MF = ff&FlagMF != 0
	h.FragOff = int(ff&0x1fff) * 8
	h.TTL = w[8]
	h.Proto = w[9]
	copy(h.Src[:], w[12:16])
	copy(h.Dst[:], w[16:20])
	if hl > HeaderLen {
		h.Options = append([]byte(nil), w[HeaderLen:hl]...)
	}
	b.Trim(total)
	b.Strip(hl)
	return h, nil
}

// Fragment splits the payload in b into link-MTU-sized fragments, each with
// a full IP header derived from h. If the datagram fits, a single packet is
// returned. Fragmentation honours DF by returning an error.
//
// Each returned buffer has headroom bytes of headroom below the IP header
// for the link layer.
func Fragment(h Header, b *pkt.Buf, mtu, headroom int) ([]*pkt.Buf, error) {
	payload := b.Bytes()
	maxSeg := mtu - h.HdrLen()
	if maxSeg <= 0 {
		return nil, fmt.Errorf("ipv4: mtu %d too small for header", mtu)
	}
	if len(payload) <= maxSeg {
		fh := h
		fh.MF = false
		fh.FragOff = 0
		out := pkt.FromBytes(headroom+h.HdrLen(), payload)
		fh.Encode(out)
		return []*pkt.Buf{out}, nil
	}
	if h.DF {
		return nil, fmt.Errorf("ipv4: fragmentation needed but DF set (len %d, mtu %d)", len(payload), mtu)
	}
	// Fragment payload sizes must be multiples of 8 except the last.
	seg := maxSeg &^ 7
	var out []*pkt.Buf
	for off := 0; off < len(payload); off += seg {
		end := off + seg
		last := false
		if end >= len(payload) {
			end = len(payload)
			last = true
		}
		fh := h
		fh.FragOff = off
		fh.MF = !last
		fb := pkt.FromBytes(headroom+h.HdrLen(), payload[off:end])
		fh.Encode(fb)
		out = append(out, fb)
	}
	return out, nil
}
