// Package freelist is the one free list this repository recycles
// per-connection records through (DESIGN §5.5). A List belongs to the
// component that makes the records — a registry shard, a library, a network
// I/O module — and dies with it: nothing here is process-global, and the
// garbage collector never empties a list behind its owner's back, so a
// world's allocation does not depend on what ran before it in the process.
package freelist

// Record is what a List holds: a pointer to a record that can scrub itself.
// Scrub zeroes every field a stale user could act on, so that a use after
// Put fails fast; it may keep storage (backing arrays, callbacks bound to
// the record itself) for the next user.
type Record interface {
	Scrub()
}

// Max bounds a list. Under steady load records come back as fast as they are
// taken and a list stays a few records deep; the bound is for the burst — a
// server's whole TIME_WAIT population expiring together when load stops —
// which must not pin its peak for the rest of the owner's life.
const Max = 256

// List is a LIFO stack of scrubbed records. The zero value is empty.
type List[P Record] struct {
	free []P
}

// Get pops the most recently put record, or returns the zero P (a nil
// pointer) when the list is empty and the caller must make one.
func (l *List[P]) Get() P {
	var p P
	if n := len(l.free); n > 0 {
		p, l.free[n-1] = l.free[n-1], p
		l.free = l.free[:n-1]
	}
	return p
}

// Put scrubs p and pushes it, or leaves it to the collector if the list is
// full. The caller must hold the only reference.
func (l *List[P]) Put(p P) {
	p.Scrub()
	if len(l.free) < Max {
		l.free = append(l.free, p)
	}
}

// Len reports how many records are waiting for reuse.
func (l *List[P]) Len() int { return len(l.free) }
