// Package pkt provides the packet buffer used throughout the stack: a flat
// byte buffer with reserved headroom so that successive protocol layers can
// prepend their headers without copying (the classic mbuf/skbuff trick), plus
// the metadata that rides along with a packet through the simulation.
//
// Buffers come from a size-classed free list (see pool.go) and are returned
// to it with Release, so the steady-state packet path allocates nothing.
package pkt

import "fmt"

// Buf is a packet buffer. The valid packet bytes are data[off:]; the region
// data[:off] is headroom available for prepending headers.
type Buf struct {
	data     []byte
	off      int
	cls      int8 // storage size class; -1 when not pool-managed
	released bool
	refs     int32 // extra references beyond the owner; 0 = sole owner

	// Meta carries simulation-side metadata; it is not part of the bytes on
	// the wire.
	Meta Meta
}

// Meta is per-packet simulation metadata.
type Meta struct {
	// BQI is the AN1 buffer queue index parsed from (or to be written into)
	// the link header. Zero is the protected kernel default queue.
	BQI uint16
	// AdvBQI is the index a frame waiting for ARP advertises once framed.
	AdvBQI uint16

	// RxDev names the device the packet arrived on, for diagnostics.
	RxDev string

	// Rx is the receiving controller's state for the frame (the device, or
	// the ring it was DMAed into) between arrival and the completion of the
	// receive interrupt, so that scheduling the completion needs no closure.
	Rx any

	// Corrupt marks a packet damaged by fault injection after any link CRC
	// would have been computed, to exercise checksum recovery paths.
	Corrupt bool
}

// New allocates a buffer with the given headroom and payload size. The
// payload region (and headroom) is zeroed, even when the storage is recycled.
func New(headroom, size int) *Buf {
	b := getBuf(headroom + size)
	zero(b.data)
	b.off = headroom
	return b
}

// FromBytes builds a buffer around a copy of p with the given headroom.
func FromBytes(headroom int, p []byte) *Buf {
	b := getBuf(headroom + len(p))
	zero(b.data[:headroom])
	copy(b.data[headroom:], p)
	b.off = headroom
	return b
}

// Bytes returns the valid packet bytes. The slice aliases the buffer;
// mutating it mutates the packet.
func (b *Buf) Bytes() []byte { return b.data[b.off:] }

// Len returns the number of valid packet bytes.
func (b *Buf) Len() int { return len(b.data) - b.off }

// Headroom returns the bytes available for Prepend.
func (b *Buf) Headroom() int { return b.off }

// Prepend grows the packet forward by n bytes and returns the new front
// region for the caller to fill in. It panics if headroom is exhausted —
// layers are expected to size headroom correctly, and silently reallocating
// would hide layering bugs.
func (b *Buf) Prepend(n int) []byte {
	if n > b.off {
		panic(fmt.Sprintf("pkt: prepend %d exceeds headroom %d", n, b.off))
	}
	b.off -= n
	return b.data[b.off : b.off+n]
}

// Strip removes n bytes from the front (consuming a header) and returns the
// removed region.
func (b *Buf) Strip(n int) []byte {
	if n > b.Len() {
		panic(fmt.Sprintf("pkt: strip %d exceeds length %d", n, b.Len()))
	}
	h := b.data[b.off : b.off+n]
	b.off += n
	return h
}

// Trim shortens the packet to n bytes, dropping the tail.
func (b *Buf) Trim(n int) {
	if n > b.Len() {
		panic(fmt.Sprintf("pkt: trim to %d exceeds length %d", n, b.Len()))
	}
	b.data = b.data[:b.off+n]
}

// Extend grows the packet by n bytes at the tail and returns the new, zeroed
// tail region. When spare storage capacity exists (the common case for
// pooled buffers, whose storage is a full size class) the growth is in
// place; otherwise the buffer migrates to a larger size class, growing
// geometrically so repeated extension is amortized O(1) instead of the old
// copy-everything-per-growth behaviour. Slices previously obtained from the
// buffer are invalidated by a migrating Extend.
func (b *Buf) Extend(n int) []byte {
	old := len(b.data)
	want := old + n
	if want <= cap(b.data) {
		b.data = b.data[:want]
		tail := b.data[old:]
		zero(tail)
		return tail
	}
	// Migrate to larger storage: at least double, so growth is geometric.
	newCap := 2 * cap(b.data)
	if newCap < want {
		newCap = want
	}
	cls := classFor(newCap)
	var nd []byte
	if cls >= 0 {
		pool.mu.Lock()
		if lst := pool.data[cls]; len(lst) > 0 {
			nd = lst[len(lst)-1]
			lst[len(lst)-1] = nil
			pool.data[cls] = lst[:len(lst)-1]
		}
		pool.mu.Unlock()
		if nd == nil {
			nd = make([]byte, classSizes[cls])
		}
	} else {
		nd = make([]byte, newCap)
	}
	nd = nd[:want]
	copy(nd, b.data)
	zero(nd[old:])
	putData(b.data, b.cls)
	b.data = nd
	b.cls = cls
	return nd[old:]
}

// Clone deep-copies the buffer, preserving headroom and metadata. Used by
// the wire for duplication faults and by devices that must retain a packet
// across retransmission. The clone is independently owned and must be
// Released separately.
func (b *Buf) Clone() *Buf {
	nb := getBuf(len(b.data))
	nb.off = b.off
	nb.Meta = b.Meta
	copy(nb.data, b.data)
	return nb
}

// Retain adds a reference to the buffer. Each reference must be balanced
// by its own Release; the storage returns to the pool only when the last
// reference releases. Retaining a released buffer panics — it would
// resurrect storage the pool may already have handed to someone else.
func (b *Buf) Retain() {
	if b.released {
		panic("pkt: Retain after Release" + leakSiteOf(b))
	}
	b.refs++
}

// Shared reports whether references beyond the owner's exist. A shared
// buffer must not be mutated in place (Strip/Trim/Extend/Prepend) — the
// other holders see the same bytes.
func (b *Buf) Shared() bool { return b.refs > 0 }

// Poison zeroes the packet bytes in place. Revocation paths use it so a
// distrusting or misbehaving tenant that is stripped of a buffer reference
// can never read data that arrived after its lease ended.
func (b *Buf) Poison() {
	if b.released {
		return
	}
	zero(b.data)
}
