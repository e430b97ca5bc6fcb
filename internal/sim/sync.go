package sim

// Semaphore is a counting semaphore for procs. V may be called from any
// context (event callbacks or procs); P only from within a proc. Wakeups are
// FIFO and are delivered via scheduled events, preserving the engine's
// one-runnable-at-a-time invariant.
type Semaphore struct {
	s       *Sim
	name    string
	count   int
	waiters []*Proc
	signals int // statistics: total V operations
}

// NewSemaphore creates a semaphore with an initial count.
func (s *Sim) NewSemaphore(name string, initial int) *Semaphore {
	return &Semaphore{s: s, name: name, count: initial}
}

// P decrements the semaphore, blocking the proc while the count is zero.
func (m *Semaphore) P(p *Proc) {
	p.ensureCurrent()
	if m.count > 0 {
		m.count--
		return
	}
	m.waiters = append(m.waiters, p)
	p.park()
}

// TryP decrements without blocking; reports whether it succeeded.
func (m *Semaphore) TryP() bool {
	if m.count > 0 {
		m.count--
		return true
	}
	return false
}

// V increments the semaphore, waking the longest-waiting live proc if any.
// Waiters that died (were killed) while blocked are skipped so their lost
// wakeups do not starve the remaining waiters.
func (m *Semaphore) V() {
	m.signals++
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		if w.done || w.killed {
			continue
		}
		m.s.scheduleResume(0, w)
		return
	}
	m.count++
}

// Count returns the current count (pending wakeups excluded).
func (m *Semaphore) Count() int { return m.count }

// Signals returns the total number of V operations, used by the experiments
// to measure notification batching effectiveness.
func (m *Semaphore) Signals() int { return m.signals }

// Waiters returns the number of procs blocked in P.
func (m *Semaphore) Waiters() int { return len(m.waiters) }

// Cond is a simple condition variable: procs Wait, any context may Signal
// (wake one) or Broadcast (wake all). There is no associated lock — the
// engine's sequential execution makes one unnecessary.
type Cond struct {
	s       *Sim
	waiters []*Proc
}

// NewCond creates a condition variable.
func (s *Sim) NewCond() *Cond { return &Cond{s: s} }

// Wait parks the proc until Signal or Broadcast wakes it. As with any
// condition variable, callers must re-check their predicate on wakeup.
func (c *Cond) Wait(p *Proc) {
	p.ensureCurrent()
	c.waiters = append(c.waiters, p)
	p.park()
}

// Signal wakes the longest-waiting live proc, if any. Dead (killed) waiters
// are skipped.
func (c *Cond) Signal() {
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		if w.done || w.killed {
			continue
		}
		c.s.scheduleResume(0, w)
		return
	}
}

// Broadcast wakes every waiting proc.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		c.s.scheduleResume(0, w)
	}
}

// Waiters returns the number of procs blocked in Wait.
func (c *Cond) Waiters() int { return len(c.waiters) }

// remove deletes p from the waiter list, reporting whether it was present.
func (c *Cond) remove(p *Proc) bool {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// WaitUntil parks the proc until Signal/Broadcast wakes it or absolute time
// deadline passes, whichever is first. It reports true if the proc was
// signalled, false on timeout. As with Wait, callers must re-check their
// predicate on a true return.
func (c *Cond) WaitUntil(p *Proc, deadline Time) bool {
	p.ensureCurrent()
	if deadline <= c.s.now {
		return false
	}
	c.waiters = append(c.waiters, p)
	timedOut := false
	timer := c.s.At(deadline, func() {
		// Only fire if no Signal claimed the proc first: Signal removes
		// the waiter synchronously, so membership decides the winner.
		if c.remove(p) {
			timedOut = true
			c.s.resumeNext(p)
		}
	})
	p.park()
	if !timedOut {
		timer.Cancel()
	}
	return !timedOut
}

// Queue is an unbounded FIFO mailbox. Push may be called from any context;
// Pop blocks the calling proc while the queue is empty.
type Queue[T any] struct {
	s     *Sim
	items []T
	cond  *Cond
}

// NewQueue creates an empty queue.
func NewQueue[T any](s *Sim) *Queue[T] {
	return &Queue[T]{s: s, cond: s.NewCond()}
}

// Push appends v and wakes one blocked Pop, if any.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.cond.Signal()
}

// Pop removes and returns the head, blocking while the queue is empty.
func (q *Queue[T]) Pop(p *Proc) T {
	for len(q.items) == 0 {
		q.cond.Wait(p)
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// PopTimeout removes and returns the head, blocking at most d of virtual
// time. It reports false if the deadline passed with the queue still empty.
func (q *Queue[T]) PopTimeout(p *Proc, d Dur) (T, bool) {
	deadline := q.s.now.Add(d)
	for len(q.items) == 0 {
		if !q.cond.WaitUntil(p, deadline) {
			var zero T
			return zero, false
		}
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// TryPop removes and returns the head without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }
