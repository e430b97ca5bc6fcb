package ipv4

import (
	"fmt"
	"sort"
)

// reasmKey identifies a datagram being reassembled (RFC 791: the four-tuple
// plus identifier).
type reasmKey struct {
	src, dst Addr
	proto    uint8
	id       uint16
}

// fragment is one received piece.
type fragment struct {
	off  int
	data []byte
	last bool
}

// reasmEntry accumulates fragments for one datagram.
type reasmEntry struct {
	frags    []fragment
	totalLen int // payload length once the last fragment is seen; -1 until then
	deadline uint64
	hdr      Header
}

// Reassembler reconstructs fragmented datagrams. It is pure: the caller
// supplies a coarse clock (any monotone counter) for timeout expiry, and
// calls Expire periodically (the organization shells use their TCP
// slow-timeout tick).
type Reassembler struct {
	entries map[reasmKey]*reasmEntry
	ttl     uint64 // entry lifetime in clock units

	// Stats
	Completed, TimedOut int
}

// NewReassembler creates a reassembler whose partial datagrams expire ttl
// clock units after the first fragment arrives.
func NewReassembler(ttl uint64) *Reassembler {
	return &Reassembler{entries: make(map[reasmKey]*reasmEntry), ttl: ttl}
}

// Insert adds a fragment. When the datagram completes, it returns the
// header (of the first fragment, with fragmentation fields cleared) and the
// full payload.
func (r *Reassembler) Insert(now uint64, h Header, payload []byte) (Header, []byte, bool) {
	key := reasmKey{h.Src, h.Dst, h.Proto, h.ID}
	e := r.entries[key]
	if e == nil {
		e = &reasmEntry{totalLen: -1, deadline: now + r.ttl}
		r.entries[key] = e
	}
	if h.FragOff == 0 {
		e.hdr = h
	}
	e.frags = append(e.frags, fragment{off: h.FragOff, data: append([]byte(nil), payload...), last: !h.MF})
	if !h.MF {
		e.totalLen = h.FragOff + len(payload)
	}
	if e.totalLen < 0 {
		return Header{}, nil, false
	}
	// Check coverage [0, totalLen) by the received fragments.
	frags := append([]fragment(nil), e.frags...)
	sort.Slice(frags, func(i, j int) bool { return frags[i].off < frags[j].off })
	covered := 0
	for _, f := range frags {
		if f.off > covered {
			return Header{}, nil, false // hole
		}
		if end := f.off + len(f.data); end > covered {
			covered = end
		}
	}
	if covered < e.totalLen {
		return Header{}, nil, false
	}
	out := make([]byte, e.totalLen)
	for _, f := range frags {
		end := f.off + len(f.data)
		if end > e.totalLen {
			end = e.totalLen
			f.data = f.data[:end-f.off]
		}
		copy(out[f.off:], f.data)
	}
	hdr := e.hdr
	hdr.MF = false
	hdr.FragOff = 0
	hdr.TotalLen = hdr.HdrLen() + e.totalLen
	delete(r.entries, key)
	r.Completed++
	return hdr, out, true
}

// Expire discards partial datagrams whose deadline has passed.
func (r *Reassembler) Expire(now uint64) {
	for k, e := range r.entries {
		if now >= e.deadline {
			delete(r.entries, k)
			r.TimedOut++
		}
	}
}

// IDGen produces datagram identifiers, one sequence per sender as in BSD.
type IDGen struct{ next uint16 }

// Next returns the next identifier.
func (g *IDGen) Next() uint16 {
	g.next++
	return g.next
}

// String renders a header compactly for diagnostics.
func (h Header) String() string {
	frag := ""
	if h.MF || h.FragOff > 0 {
		frag = fmt.Sprintf(" frag(off=%d,mf=%v)", h.FragOff, h.MF)
	}
	return fmt.Sprintf("ipv4 %s->%s proto=%d id=%d len=%d%s", h.Src, h.Dst, h.Proto, h.ID, h.TotalLen, frag)
}
