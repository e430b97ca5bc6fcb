// Package udp implements the User Datagram Protocol. The paper's §5
// discusses connectionless protocols: request-response traffic typically has
// an address-binding phase (as in an RPC system) after which the dedicated
// server can be bypassed exactly as for TCP; the reqresp example and the
// RPC ablation benchmark are built on this package.
package udp

import (
	"encoding/binary"
	"fmt"

	"ulp/internal/checksum"
	"ulp/internal/ipv4"
	"ulp/internal/pkt"
)

// HeaderLen is the UDP header size.
const HeaderLen = 8

// Header is a decoded UDP header.
type Header struct {
	SrcPort, DstPort uint16
	// Length is the datagram length including the header (filled on
	// decode).
	Length int
}

// Encode prepends the header and computes the checksum over the
// pseudo-header, header and payload.
func (h *Header) Encode(b *pkt.Buf, src, dst ipv4.Addr) {
	length := HeaderLen + b.Len()
	w := b.Prepend(HeaderLen)
	binary.BigEndian.PutUint16(w[0:], h.SrcPort)
	binary.BigEndian.PutUint16(w[2:], h.DstPort)
	binary.BigEndian.PutUint16(w[4:], uint16(length))
	w[6], w[7] = 0, 0
	acc := checksum.PseudoHeader(0, src, dst, ipv4.ProtoUDP, length)
	ck := checksum.Fold(checksum.Sum(acc, b.Bytes()))
	if ck == 0 {
		ck = 0xffff // transmitted zero means "no checksum"
	}
	binary.BigEndian.PutUint16(w[6:], ck)
}

// Decode strips and validates a header. A zero checksum field means the
// sender didn't checksum (legal for UDP).
func Decode(b *pkt.Buf, src, dst ipv4.Addr) (Header, error) {
	if b.Len() < HeaderLen {
		return Header{}, fmt.Errorf("udp: short datagram (%d bytes)", b.Len())
	}
	w := b.Bytes()
	length := int(binary.BigEndian.Uint16(w[4:]))
	if length < HeaderLen || length > b.Len() {
		return Header{}, fmt.Errorf("udp: bad length %d (datagram %d)", length, b.Len())
	}
	if binary.BigEndian.Uint16(w[6:]) != 0 {
		acc := checksum.PseudoHeader(0, src, dst, ipv4.ProtoUDP, length)
		if checksum.Fold(checksum.Sum(acc, w[:length])) != 0 {
			return Header{}, fmt.Errorf("udp: checksum mismatch")
		}
	}
	var h Header
	h.SrcPort = binary.BigEndian.Uint16(w[0:])
	h.DstPort = binary.BigEndian.Uint16(w[2:])
	h.Length = length
	b.Trim(length)
	b.Strip(HeaderLen)
	return h, nil
}

// Datagram is a received datagram with its source.
type Datagram struct {
	From    Endpoint
	Payload []byte
}

// Endpoint is an address/port pair.
type Endpoint struct {
	IP   ipv4.Addr
	Port uint16
}

// String formats the endpoint.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.IP, e.Port) }

// Table demultiplexes datagrams to bound ports.
type Table struct {
	socks map[uint16]*Sock
}

// Sock is one bound UDP endpoint with a receive queue.
type Sock struct {
	Local Endpoint
	queue []Datagram
	limit int
	// Dropped counts datagrams discarded because the queue was full.
	Dropped int
}

// NewTable creates an empty table.
func NewTable() *Table { return &Table{socks: make(map[uint16]*Sock)} }

// Bind claims a port.
func (t *Table) Bind(local Endpoint, queueLimit int) (*Sock, error) {
	if _, dup := t.socks[local.Port]; dup {
		return nil, fmt.Errorf("udp: port %d in use", local.Port)
	}
	if queueLimit <= 0 {
		queueLimit = 64
	}
	s := &Sock{Local: local, limit: queueLimit}
	t.socks[local.Port] = s
	return s, nil
}

// Unbind releases a port.
func (t *Table) Unbind(port uint16) { delete(t.socks, port) }

// Deliver routes a datagram to its socket; it reports whether a socket
// existed.
func (t *Table) Deliver(dst Endpoint, d Datagram) bool {
	s, ok := t.socks[dst.Port]
	if !ok {
		return false
	}
	if len(s.queue) >= s.limit {
		s.Dropped++
		return true
	}
	s.queue = append(s.queue, d)
	return true
}

// Recv pops the next queued datagram.
func (s *Sock) Recv() (Datagram, bool) {
	if len(s.queue) == 0 {
		return Datagram{}, false
	}
	d := s.queue[0]
	s.queue = s.queue[1:]
	return d, true
}
