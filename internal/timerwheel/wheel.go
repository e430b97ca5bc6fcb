// Package timerwheel implements hashed hierarchical timing wheels (Varghese
// & Lauck, SOSP 1987), the timer facility the paper identifies as the known
// fast mechanism for transport timers: "practically every message arrival
// and departure involves timer operations".
//
// The wheel is driven by an external tick source (the simulation clock), so
// it is pure and independently testable. Set, Cancel and per-tick advance
// are O(1) amortized; the hierarchy gives a wide range (tick granularity up
// to granularity * slots^levels) with small tables.
package timerwheel

// Timer is a schedulable callback. The zero value is an unarmed timer;
// reuse after firing or cancellation is allowed.
type Timer struct {
	fn       func()
	deadline uint64 // absolute tick
	armed    bool

	// intrusive doubly-linked list within a slot
	next, prev *Timer
	slot       *slotList
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool { return t.armed }

type slotList struct{ head Timer }

func (l *slotList) init() {
	l.head.next = &l.head
	l.head.prev = &l.head
}

func (l *slotList) push(t *Timer) {
	t.prev = l.head.prev
	t.next = &l.head
	l.head.prev.next = t
	l.head.prev = t
	t.slot = l
}

func (t *Timer) unlink() {
	t.prev.next = t.next
	t.next.prev = t.prev
	t.next, t.prev, t.slot = nil, nil, nil
}

// Wheel is a hierarchical timing wheel. It is not safe for concurrent use;
// in this codebase it is always driven from simulation context.
type Wheel struct {
	levels [][]slotList
	slots  uint64 // slots per level (power of two)
	mask   uint64
	shift  uint   // log2(slots)
	now    uint64 // current absolute tick
	armed  int
	// due is the list tick fires from: empty between ticks. It lives here
	// and not on tick's stack because the timers on it point at its head.
	due slotList
}

// New creates a wheel with the given number of levels, each with slots
// entries; slots must be a power of two. A 4-level, 256-slot wheel at 1 ms
// granularity covers ~ 4.3e9 ms.
func New(levels, slots int) *Wheel {
	if slots <= 0 || slots&(slots-1) != 0 {
		panic("timerwheel: slots must be a power of two")
	}
	w := &Wheel{slots: uint64(slots), mask: uint64(slots - 1)}
	w.due.init()
	for s := slots; s > 1; s >>= 1 {
		w.shift++
	}
	w.levels = make([][]slotList, levels)
	for i := range w.levels {
		w.levels[i] = make([]slotList, slots)
		for j := range w.levels[i] {
			w.levels[i][j].init()
		}
	}
	return w
}

// Now returns the wheel's current tick.
func (w *Wheel) Now() uint64 { return w.now }

// Armed returns the number of pending timers.
func (w *Wheel) Armed() int { return w.armed }

// place inserts t into the level/slot appropriate for its deadline.
func (w *Wheel) place(t *Timer) {
	delta := t.deadline - w.now
	if delta == 0 {
		delta = 1 // fire on the next tick at the earliest
	}
	level := 0
	span := w.slots
	for level < len(w.levels)-1 && delta >= span {
		span <<= w.shift
		level++
	}
	// Index by the deadline digits at this level.
	idx := (t.deadline >> (w.shift * uint(level))) & w.mask
	w.levels[level][idx].push(t)
}

// Set arms t to fire fn after delay ticks (minimum 1). If t is already
// armed it is rescheduled.
func (w *Wheel) Set(t *Timer, delay uint64, fn func()) {
	if t.armed {
		t.unlink()
		w.armed--
	}
	if delay == 0 {
		delay = 1
	}
	maxSpan := uint64(1) << (w.shift * uint(len(w.levels)))
	if delay >= maxSpan {
		delay = maxSpan - 1
	}
	t.fn = fn
	t.deadline = w.now + delay
	t.armed = true
	w.armed++
	w.place(t)
}

// Cancel disarms t; it reports whether the timer was pending.
func (w *Wheel) Cancel(t *Timer) bool {
	if !t.armed {
		return false
	}
	t.unlink()
	t.armed = false
	w.armed--
	return true
}

// Advance moves the wheel forward by n ticks, firing every timer whose
// deadline is reached, in deadline order within each tick. It returns the
// number of timers fired.
func (w *Wheel) Advance(n uint64) int {
	fired := 0
	for i := uint64(0); i < n; i++ {
		w.now++
		fired += w.tick()
	}
	return fired
}

// tick processes the slot for the current tick at level 0 and cascades
// higher levels when their digit rolls over.
func (w *Wheel) tick() int {
	fired := 0
	// Cascade: when the level-k digit becomes 0, redistribute level k+1.
	for level := 1; level < len(w.levels); level++ {
		digitBelow := (w.now >> (w.shift * uint(level-1))) & w.mask
		if digitBelow != 0 {
			break
		}
		idx := (w.now >> (w.shift * uint(level))) & w.mask
		l := &w.levels[level][idx]
		for t := l.head.next; t != &l.head; {
			next := t.next
			t.unlink()
			w.place(t)
			t = next
		}
	}
	// Fire level-0 slot entries whose deadline matches. Due timers are
	// first spliced onto a private list and then popped one at a time, so
	// an expiry callback may freely Cancel or re-Set any other timer —
	// including one due this same tick — without corrupting the walk.
	l := &w.levels[0][w.now&w.mask]
	due := &w.due
	for t := l.head.next; t != &l.head; {
		next := t.next
		if t.deadline <= w.now {
			t.unlink()
			due.push(t)
		}
		t = next
	}
	for due.head.next != &due.head {
		t := due.head.next
		t.unlink()
		t.armed = false
		w.armed--
		fired++
		t.fn()
	}
	return fired
}
