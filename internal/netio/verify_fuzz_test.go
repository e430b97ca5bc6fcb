package netio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ulp/internal/ipv4"
	"ulp/internal/link"
)

// templateBytes lays a template out for the fuzzer: link source and
// destination, EtherType, protocol, local address and port, remote address
// and port, 27 bytes in all.
func templateBytes(t Template) []byte {
	b := append(append([]byte(nil), t.LinkSrc[:]...), t.LinkDst[:]...)
	b = binary.BigEndian.AppendUint16(b, uint16(t.Type))
	b = append(b, t.Proto)
	b = append(b, t.LocalIP[:]...)
	b = binary.BigEndian.AppendUint16(b, t.LocalPort)
	b = append(b, t.RemoteIP[:]...)
	return binary.BigEndian.AppendUint16(b, t.RemotePort)
}

// templateOf reads templateBytes' layout back, zero past the end of b.
func templateOf(b []byte) (t Template) {
	b = append(b[:len(b):len(b)], make([]byte, 27)...)
	copy(t.LinkSrc[:], b[0:6])
	copy(t.LinkDst[:], b[6:12])
	t.Type = link.EtherType(binary.BigEndian.Uint16(b[12:]))
	t.Proto = b[14]
	copy(t.LocalIP[:], b[15:19])
	t.LocalPort = binary.BigEndian.Uint16(b[19:])
	copy(t.RemoteIP[:], b[21:25])
	t.RemotePort = binary.BigEndian.Uint16(b[25:])
	return t
}

// verifyReference is what Template.Verify checks, read straight from byte
// offsets: the link header's EtherType (its last two bytes), source address
// and, unless the template leaves it open, destination; then, for a protocol
// template, an IPv4 header of version 4 and a length that fits, neither
// more-fragments nor a fragment offset, the protocol, the source address
// and, unless left open, the destination; and the ports that open the body.
func verifyReference(t Template, f []byte, hdrLen int) bool {
	if len(f) < hdrLen || binary.BigEndian.Uint16(f[hdrLen-2:]) != uint16(t.Type) ||
		!bytes.Equal(f[6:12], t.LinkSrc[:]) ||
		t.LinkDst != (link.Addr{}) && !bytes.Equal(f[0:6], t.LinkDst[:]) {
		return false
	}
	if t.Proto == 0 {
		return true
	}
	ip := f[hdrLen:]
	if len(ip) < 20 || ip[0]>>4 != 4 {
		return false
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < 20 || ihl > len(ip) || ip[6]&0x3f != 0 || ip[7] != 0 || ip[9] != t.Proto ||
		!bytes.Equal(ip[12:16], t.LocalIP[:]) ||
		t.RemoteIP != (ipv4.Addr{}) && !bytes.Equal(ip[16:20], t.RemoteIP[:]) {
		return false
	}
	l4 := ip[ihl:]
	return len(l4) >= 4 && binary.BigEndian.Uint16(l4) == t.LocalPort &&
		(t.RemotePort == 0 || binary.BigEndian.Uint16(l4[2:]) == t.RemotePort)
}

// FuzzTemplateVerify holds the send-side check to its reference over any
// frame and any template, on either device's link header.
func FuzzTemplateVerify(f *testing.F) {
	addr1, addr2 := link.MakeAddr(1), link.MakeAddr(2)
	conn := Template{LinkSrc: addr1, LinkDst: addr2, Type: link.TypeIPv4, Proto: ipv4.ProtoTCP,
		LocalIP: ip1, LocalPort: 1025, RemoteIP: ip2, RemotePort: 80}
	// frame is what conn's connection sends on a link header of hdrLen
	// bytes, DF set, after edit (nil for none) has altered it.
	frame := func(hdrLen int, edit func(f, ip []byte)) []byte {
		f := make([]byte, hdrLen+ipv4.HeaderLen+8)
		copy(f[0:6], addr2[:])
		copy(f[6:12], addr1[:])
		binary.BigEndian.PutUint16(f[hdrLen-2:], uint16(link.TypeIPv4))
		ip := f[hdrLen:]
		ip[0], ip[6], ip[8], ip[9] = 0x45, 0x40, 64, ipv4.ProtoTCP
		copy(ip[12:16], ip1[:])
		copy(ip[16:20], ip2[:])
		binary.BigEndian.PutUint16(ip[20:], 1025)
		binary.BigEndian.PutUint16(ip[22:], 80)
		if edit != nil {
			edit(f, ip)
		}
		return f
	}
	with := func(edit func(*Template)) []byte {
		t := conn
		edit(&t)
		return templateBytes(t)
	}
	eth, an1 := link.EthHeaderLen, link.AN1HeaderLen
	f.Add(frame(eth, nil), templateBytes(conn), false)
	f.Add(frame(an1, nil), templateBytes(conn), true)
	f.Add(frame(eth, func(_, ip []byte) { ip[6] |= 0x20 }), templateBytes(conn), false)          // first fragment
	f.Add(frame(eth, func(_, ip []byte) { ip[6], ip[7] = 0, 0xb9 }), templateBytes(conn), false) // later fragment
	f.Add(frame(eth, func(_, ip []byte) { ip[19] = 9 }), with(func(t *Template) { t.RemoteIP = ipv4.Addr{} }), false)
	f.Add(frame(eth, func(_, ip []byte) { ip[23] = 81 }), with(func(t *Template) { t.RemotePort = 0 }), false)
	f.Add(frame(eth, func(f, _ []byte) { binary.BigEndian.PutUint16(f[eth-2:], uint16(link.TypeRaw)) }),
		with(func(t *Template) { *t = Template{LinkSrc: addr1, Type: link.TypeRaw} }), false) // raw channel
	f.Add(frame(eth, func(f, _ []byte) { f[11] = 9 }), templateBytes(conn), false)     // wrong link source
	f.Add(frame(eth, nil)[:10], templateBytes(conn), false)                            // short frame
	f.Add(frame(eth, func(_, ip []byte) { ip[0] = 0x46 }), templateBytes(conn), false) // options: ports move
	f.Add(frame(eth, func(_, ip []byte) { ip[9] = ipv4.ProtoUDP }), templateBytes(conn), false)
	f.Fuzz(func(t *testing.T, raw, tb []byte, onAN1 bool) {
		hdrLen := eth
		if onAN1 {
			hdrLen = an1
		}
		tmpl := templateOf(tb)
		if got, want := tmpl.Verify(raw, hdrLen), verifyReference(tmpl, raw, hdrLen); got != want {
			t.Fatalf("template %+v, frame % x (link header %d): Verify %v, reference %v", tmpl, raw, hdrLen, got, want)
		}
	})
}
