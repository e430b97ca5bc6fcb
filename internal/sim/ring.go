package sim

// ring is a FIFO that keeps its backing array: popping from the front of a
// slice gives the array's head away, so a queue that is pushed and popped in
// turn reallocates for ever, whereas a ring that has grown to its working
// depth allocates nothing. A vacated slot is zeroed, so what was popped is
// not pinned by the queue it left. The zero value is empty; capacities are
// powers of two.
type ring[T any] struct {
	buf  []T
	head int32 // index of the oldest item
	n    int32
}

func (r *ring[T]) len() int { return int(r.n) }

// at returns the i-th oldest item.
func (r *ring[T]) at(i int) *T { return &r.buf[(int(r.head)+i)&(len(r.buf)-1)] }

func (r *ring[T]) push(v T) {
	if int(r.n) == len(r.buf) {
		grown := make([]T, max(2*len(r.buf), 1))
		for i := range r.buf {
			grown[i] = *r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	r.n++
	*r.at(int(r.n) - 1) = v
}

func (r *ring[T]) pop() T {
	var zero T
	v := *r.at(0)
	*r.at(0) = zero
	r.head = (r.head + 1) & int32(len(r.buf)-1)
	r.n--
	return v
}

// remove deletes the i-th oldest item, keeping the order of the others.
func (r *ring[T]) remove(i int) {
	last := int(r.n) - 1
	for ; i < last; i++ {
		*r.at(i) = *r.at(i + 1)
	}
	var zero T
	*r.at(last) = zero
	r.n--
}

// reset empties the ring, keeping its array.
func (r *ring[T]) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}
