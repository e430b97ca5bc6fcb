// Package arp implements the Address Resolution Protocol used by the IP
// libraries to map IPv4 addresses to station addresses. As in the paper's
// system, ARP is one of the protocol libraries an application links against
// ("an application using TCP will typically link to the TCP, IP, and ARP
// libraries").
//
// The package is pure protocol logic (codec + cache + pending queue); the
// organization shells drive it and own timers and transmission.
package arp

import (
	"encoding/binary"
	"fmt"

	"ulp/internal/ipv4"
	"ulp/internal/link"
	"ulp/internal/pkt"
)

// Operation codes.
const (
	OpRequest = 1
	OpReply   = 2
)

// PacketLen is the size of an Ethernet/IPv4 ARP packet.
const PacketLen = 28

// Packet is a decoded ARP packet.
type Packet struct {
	Op       uint16
	SenderHW link.Addr
	SenderIP ipv4.Addr
	TargetHW link.Addr
	TargetIP ipv4.Addr
}

// Encode appends the 28-byte wire form onto a fresh buffer with the given
// headroom for the link header.
func (p *Packet) Encode(headroom int) *pkt.Buf {
	b := pkt.New(headroom, PacketLen)
	w := b.Bytes()
	binary.BigEndian.PutUint16(w[0:], 1)      // htype: Ethernet
	binary.BigEndian.PutUint16(w[2:], 0x0800) // ptype: IPv4
	w[4], w[5] = 6, 4                         // hlen, plen
	binary.BigEndian.PutUint16(w[6:], p.Op)
	copy(w[8:14], p.SenderHW[:])
	copy(w[14:18], p.SenderIP[:])
	copy(w[18:24], p.TargetHW[:])
	copy(w[24:28], p.TargetIP[:])
	return b
}

// Decode parses an ARP packet.
func Decode(b *pkt.Buf) (Packet, error) {
	if b.Len() < PacketLen {
		return Packet{}, fmt.Errorf("arp: short packet (%d bytes)", b.Len())
	}
	w := b.Bytes()
	if binary.BigEndian.Uint16(w[0:]) != 1 || binary.BigEndian.Uint16(w[2:]) != 0x0800 ||
		w[4] != 6 || w[5] != 4 {
		return Packet{}, fmt.Errorf("arp: unsupported hardware/protocol types")
	}
	var p Packet
	p.Op = binary.BigEndian.Uint16(w[6:])
	copy(p.SenderHW[:], w[8:14])
	copy(p.SenderIP[:], w[14:18])
	copy(p.TargetHW[:], w[18:24])
	copy(p.TargetIP[:], w[24:28])
	return p, nil
}

// Cache is one interface's ARP state: resolved entries plus IP datagrams
// queued awaiting resolution.
type Cache struct {
	selfHW link.Addr
	selfIP ipv4.Addr
	ttl    uint64

	entries map[ipv4.Addr]entry
	pending map[ipv4.Addr][]*pkt.Buf
}

type entry struct {
	hw      link.Addr
	expires uint64
}

// MaxPendingPerAddr bounds the per-destination hold queue, as BSD did (it
// kept one; we keep a few to avoid gratuitous drops in bulk tests).
const MaxPendingPerAddr = 8

// NewCache creates a cache for an interface with the given addresses;
// entries live for ttl clock units.
func NewCache(selfHW link.Addr, selfIP ipv4.Addr, ttl uint64) *Cache {
	return &Cache{
		selfHW: selfHW, selfIP: selfIP, ttl: ttl,
		entries: make(map[ipv4.Addr]entry),
		pending: make(map[ipv4.Addr][]*pkt.Buf),
	}
}

// Lookup returns the station address for ip if a live entry exists.
func (c *Cache) Lookup(now uint64, ip ipv4.Addr) (link.Addr, bool) {
	e, ok := c.entries[ip]
	if !ok || now >= e.expires {
		return link.Addr{}, false
	}
	return e.hw, true
}

// Enqueue holds an IP datagram awaiting resolution of ip; it reports
// whether a request should be transmitted (true for the first queued
// packet). Overflow drops the oldest, as BSD's single-packet hold did.
func (c *Cache) Enqueue(ip ipv4.Addr, b *pkt.Buf) (sendRequest bool) {
	q := c.pending[ip]
	sendRequest = len(q) == 0
	if len(q) >= MaxPendingPerAddr {
		q = q[1:]
	}
	c.pending[ip] = append(q, b)
	return sendRequest
}

// MakeRequest builds the broadcast request for ip.
func (c *Cache) MakeRequest(ip ipv4.Addr) Packet {
	return Packet{Op: OpRequest, SenderHW: c.selfHW, SenderIP: c.selfIP, TargetIP: ip}
}

// Input processes a received ARP packet. It opportunistically learns the
// sender mapping (as BSD does), returns a reply to transmit if the packet
// is a request for our address, and returns any datagrams that were queued
// awaiting the sender's address, now resolvable.
func (c *Cache) Input(now uint64, p Packet) (reply *Packet, released []*pkt.Buf) {
	if !p.SenderIP.IsZero() {
		c.entries[p.SenderIP] = entry{hw: p.SenderHW, expires: now + c.ttl}
		if q := c.pending[p.SenderIP]; len(q) > 0 {
			released = q
			delete(c.pending, p.SenderIP)
		}
	}
	if p.Op == OpRequest && p.TargetIP == c.selfIP {
		reply = &Packet{
			Op:       OpReply,
			SenderHW: c.selfHW, SenderIP: c.selfIP,
			TargetHW: p.SenderHW, TargetIP: p.SenderIP,
		}
	}
	return reply, released
}
