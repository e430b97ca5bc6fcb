package tcp

import (
	"errors"
	"fmt"
)

// FourTuple identifies a connection.
type FourTuple struct {
	Local, Peer Endpoint
}

// Table is the protocol-control-block lookup structure the monolithic
// organizations and the registry use to demultiplex inbound segments to
// fully specified connections; each keeps its own listeners beside it. (In
// the user-level-library organization this lookup is replaced by the
// network I/O module's per-endpoint filters and the AN1's BQI, which is the
// paper's point.)
type Table struct {
	conns map[FourTuple]*Conn
}

// NewTable creates an empty PCB table.
func NewTable() *Table {
	return &Table{conns: make(map[FourTuple]*Conn)}
}

// Insert registers a fully specified connection. It fails if the four-tuple
// is taken.
func (t *Table) Insert(c *Conn) error {
	k := FourTuple{c.Local(), c.Peer()}
	if _, dup := t.conns[k]; dup {
		return fmt.Errorf("tcp: connection %v already exists", k)
	}
	t.conns[k] = c
	return nil
}

// Remove deletes a connection.
func (t *Table) Remove(c *Conn) {
	delete(t.conns, FourTuple{c.Local(), c.Peer()})
}

// LookupExact finds a fully specified connection.
func (t *Table) LookupExact(local, peer Endpoint) (*Conn, bool) {
	c, ok := t.conns[FourTuple{local, peer}]
	return c, ok
}

// Len returns the number of registered connections.
func (t *Table) Len() int { return len(t.conns) }

// Less orders four-tuples (local port, peer port, local IP, peer IP): the
// total order shells use wherever map iteration would otherwise decide the
// sequence of deterministic-replay-visible actions.
func (a FourTuple) Less(b FourTuple) bool {
	if a.Local.Port != b.Local.Port {
		return a.Local.Port < b.Local.Port
	}
	if a.Peer.Port != b.Peer.Port {
		return a.Peer.Port < b.Peer.Port
	}
	if a.Local.IP != b.Local.IP {
		return ipLess(a.Local.IP, b.Local.IP)
	}
	return ipLess(a.Peer.IP, b.Peer.IP)
}

func ipLess(a, b [4]byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// ErrPortExhausted reports that every port in the ephemeral range is in
// use. Callers surface it as a setup failure; it resolves itself as
// TIME_WAIT states expire and teardowns release their references.
var ErrPortExhausted = errors.New("tcp: ephemeral port space exhausted")

// PortAlloc hands out ephemeral local ports, BSD-style ([1024, 5000) by
// default; NewPortAllocRange widens it for high-churn worlds). Ports are
// reference-counted: a listener and the passive connections accepted
// through it share the same local port, each holding one reference, and the
// port is free again only when the last holder releases it.
type PortAlloc struct {
	lo, hi uint16 // ephemeral range [lo, hi)
	next   uint16
	inUse  map[uint16]int
}

// NewPortAlloc creates an allocator over the classic BSD range.
func NewPortAlloc() *PortAlloc {
	return NewPortAllocRange(1024, 5000)
}

// NewPortAllocRange creates an allocator handing out ephemeral ports from
// [lo, hi). A 10k-connection churn world exhausts the ~4k BSD default
// immediately; such worlds configure e.g. [1024, 65535).
func NewPortAllocRange(lo, hi uint16) *PortAlloc {
	if hi <= lo {
		panic(fmt.Sprintf("tcp: bad ephemeral range [%d, %d)", lo, hi))
	}
	return &PortAlloc{lo: lo, hi: hi, next: lo, inUse: make(map[uint16]int)}
}

// EphemeralRange reports the configured [lo, hi) range.
func (a *PortAlloc) EphemeralRange() (lo, hi uint16) { return a.lo, a.hi }

// Reserve claims a specific port (bind); it reports whether it was free.
func (a *PortAlloc) Reserve(p uint16) bool {
	if a.inUse[p] > 0 {
		return false
	}
	a.inUse[p] = 1
	return true
}

// Retain adds a reference to a port (an accepted connection sharing its
// listener's port). Retaining an unallocated port allocates it.
func (a *PortAlloc) Retain(p uint16) { a.inUse[p]++ }

// Ephemeral allocates the next free ephemeral port, scanning at most one
// full cycle of the range: with every port in use it returns
// ErrPortExhausted rather than spinning forever.
func (a *PortAlloc) Ephemeral() (uint16, error) {
	for i := int(a.hi) - int(a.lo); i > 0; i-- {
		p := a.next
		a.next++
		if a.next >= a.hi {
			a.next = a.lo
		}
		if a.inUse[p] == 0 {
			a.inUse[p] = 1
			return p, nil
		}
	}
	return 0, ErrPortExhausted
}

// Release drops one reference; the port is free when the count hits zero.
func (a *PortAlloc) Release(p uint16) {
	if n := a.inUse[p]; n > 1 {
		a.inUse[p] = n - 1
	} else {
		delete(a.inUse, p)
	}
}

// InUse returns the number of allocated ports. Crash-reclamation tests
// assert this returns to zero after an application dies.
func (a *PortAlloc) InUse() int { return len(a.inUse) }
