package sim

// Semaphore is a counting semaphore for procs. V may be called from any
// context (event callbacks or procs); P only from within a proc. Wakeups are
// FIFO and are delivered via scheduled events, preserving the engine's
// one-runnable-at-a-time invariant.
type Semaphore struct {
	s       *Sim
	name    string
	count   int
	waiters ring[*Proc]
}

// NewSemaphore creates a semaphore with an initial count.
func (s *Sim) NewSemaphore(name string, initial int) *Semaphore {
	m := new(Semaphore)
	m.Init(s, name, initial)
	return m
}

// Init makes m a fresh semaphore in place, for one embedded in a record that
// is reused; the waiter list keeps its array. Nothing may be blocked on m.
func (m *Semaphore) Init(s *Sim, name string, initial int) {
	m.waiters.reset()
	*m = Semaphore{s: s, name: name, count: initial, waiters: m.waiters}
}

// P decrements the semaphore, blocking the proc while the count is zero.
func (m *Semaphore) P(p *Proc) {
	p.ensureCurrent()
	if m.count > 0 {
		m.count--
		return
	}
	m.waiters.push(p)
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
	for m.waiters.len() > 0 {
		w := m.waiters.pop()
		if w.done || w.killed {
			continue
		}
		m.s.scheduleResume(0, w)
		return
	}
	m.count++
}

// Waiters returns the number of procs blocked in P.
func (m *Semaphore) Waiters() int { return m.waiters.len() }

// Cond is a simple condition variable: procs Wait, any context may Signal
// (wake one) or Broadcast (wake all). There is no associated lock — the
// engine's sequential execution makes one unnecessary.
type Cond struct {
	s       *Sim
	waiters ring[*Proc]
}

// NewCond creates a condition variable.
func (s *Sim) NewCond() *Cond {
	c := new(Cond)
	c.Init(s)
	return c
}

// Init makes c a fresh condition variable in place (see Semaphore.Init).
func (c *Cond) Init(s *Sim) {
	c.waiters.reset()
	c.s = s
}

// Wait parks the proc until Signal or Broadcast wakes it. As with any
// condition variable, callers must re-check their predicate on wakeup.
func (c *Cond) Wait(p *Proc) {
	p.ensureCurrent()
	c.waiters.push(p)
	p.park()
}

// Signal wakes the longest-waiting live proc, if any. Dead (killed) waiters
// are skipped.
func (c *Cond) Signal() {
	for c.waiters.len() > 0 {
		w := c.waiters.pop()
		if w.done || w.killed {
			continue
		}
		c.s.scheduleResume(0, w)
		return
	}
}

// Broadcast wakes every waiting proc.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.s.scheduleResume(0, c.waiters.pop())
	}
}

// Waiters returns the number of procs blocked in Wait.
func (c *Cond) Waiters() int { return c.waiters.len() }

// remove deletes p from the waiter list, reporting whether it was present.
func (c *Cond) remove(p *Proc) bool {
	for i := 0; i < c.waiters.len(); i++ {
		if *c.waiters.at(i) == p {
			c.waiters.remove(i)
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
	c.waiters.push(p)
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
	items ring[T]
	cond  Cond
}

// NewQueue creates an empty queue.
func NewQueue[T any](s *Sim) *Queue[T] {
	q := new(Queue[T])
	q.Init(s)
	return q
}

// Init makes q an empty queue in place, for one embedded in another record.
func (q *Queue[T]) Init(s *Sim) {
	q.s = s
	q.items.reset()
	q.cond.Init(s)
}

// Push appends v and wakes one blocked Pop, if any.
func (q *Queue[T]) Push(v T) {
	q.items.push(v)
	q.cond.Signal()
}

// Pop removes and returns the head, blocking while the queue is empty.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.items.len() == 0 {
		q.cond.Wait(p)
	}
	return q.items.pop()
}

// PopTimeout removes and returns the head, blocking at most d of virtual
// time. It reports false if the deadline passed with the queue still empty.
func (q *Queue[T]) PopTimeout(p *Proc, d Dur) (T, bool) {
	deadline := q.s.now.Add(d)
	for q.items.len() == 0 {
		if !q.cond.WaitUntil(p, deadline) {
			var zero T
			return zero, false
		}
	}
	return q.items.pop(), true
}

// TryPop removes and returns the head without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }
