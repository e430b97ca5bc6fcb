package netio

import "ulp/internal/kern"

// Doorbell is what a channel's consumer sleeps on: a lightweight semaphore
// and the FIFO of channels that have rung it and not been drained since.
// Each consumer owns one and Attach moves the channels it serves onto it,
// so one thread can serve many channels, and frames arriving on several of
// them while it is awake or being woken cost it no further wakeup
// ("multiple network packets per semaphore notification", across
// connections). The list is intrusive: ringing allocates nothing.
type Doorbell struct {
	sem        kern.Sem
	head, tail *Channel
}

// Init makes d a fresh doorbell in place, on host h. d must be quiet: no
// thread asleep on it, no wakeup on its way, no channel on its list.
func (d *Doorbell) Init(h *kern.Host) { d.sem.Init(h, "doorbell", 0) }

// Wait blocks the consumer until a channel has rung or the doorbell was
// poked. It may return with nothing ready: the consumer looks at what it
// serves, then waits again.
func (d *Doorbell) Wait(t *kern.Thread) {
	if d.head == nil {
		d.sem.P(t)
	}
}

// Next takes the channel that rang first off the list, nil when none has.
func (d *Doorbell) Next() *Channel {
	ch := d.head
	if ch != nil {
		d.unlink(ch)
	}
	return ch
}

// Poke posts the doorbell with no channel on it, so that its consumer wakes
// to look at whatever else it was told to.
func (d *Doorbell) Poke() { d.sem.V() }

// ring queues ch and posts the semaphore. A channel already on the list
// posts again. One that joins a list other channels are on needs no wakeup:
// the post that queued the first of them found the consumer running or is on
// its way to wake it, and the consumer drains the whole list before it
// sleeps again. So a doorbell only one channel rings charges exactly what a
// semaphore of that channel's own would.
func (d *Doorbell) ring(ch *Channel) {
	switch {
	case ch.ready:
		d.sem.V()
	case d.head != nil:
		d.push(ch)
		d.sem.Signal()
	default:
		d.push(ch)
		d.sem.V()
	}
}

// push appends ch to the list.
func (d *Doorbell) push(ch *Channel) {
	ch.ready = true
	ch.prev = d.tail
	if d.tail != nil {
		d.tail.next = ch
	} else {
		d.head = ch
	}
	d.tail = ch
}

// unlink takes ch off the list, if it is on it.
func (d *Doorbell) unlink(ch *Channel) {
	if !ch.ready {
		return
	}
	if ch.prev != nil {
		ch.prev.next = ch.next
	} else {
		d.head = ch.next
	}
	if ch.next != nil {
		ch.next.prev = ch.prev
	} else {
		d.tail = ch.prev
	}
	ch.prev, ch.next, ch.ready = nil, nil, false
}

// Attach moves ch onto doorbell d, to be served by d's consumer, and makes
// owner what Owner returns, so the consumer goes from the doorbell to its
// connection with no lookup. It is the only way to wait on a channel. A
// channel that rang before it was attached and has not been drained takes
// its place on d's list with it: that post was paid, and it is paid again
// only if d's consumer is asleep and must be woken. Attached again to the
// doorbell it is on, it changes owner and keeps its place.
func (ch *Channel) Attach(d *Doorbell, owner any) {
	ch.owner = owner
	if !ch.ready || ch.bell == d {
		ch.bell = d
		return
	}
	ch.bell.unlink(ch)
	ch.bell = d
	d.push(ch)
	if d.sem.Sleeping() {
		d.sem.V()
	}
}

// Owner returns what Attach made the channel's owner; nil for a channel no
// consumer has attached, or one disowned.
func (ch *Channel) Owner() any { return ch.owner }
