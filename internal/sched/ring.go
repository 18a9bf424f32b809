package sched

// Ring is a FIFO queue over a circular buffer whose size is a power of two.
// It is the queue every component's chip-loop hand-offs use (the core's
// write buffer, the L2's slice and scalar queues, the Zbox port queues, the
// Vbox's ready-memory and slice-submit queues): a slice whose head keeps
// advancing (q = q[1:]) reallocates each time its capacity runs out even
// though its length stays bounded, where the ring reuses its buffer. The
// buffer doubles when full and never shrinks. Pop zeroes the slot it
// vacates, so a popped pointer is not kept alive by the queue. The zero
// value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest item
	n    int
}

// ringMinCap is the buffer size of a ring's first push.
const ringMinCap = 8

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return r.n }

// Push appends x at the tail.
func (r *Ring[T]) Push(x T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = x
	r.n++
}

// Peek returns the oldest item without removing it. The ring must not be
// empty.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		panic("sched: Peek on an empty Ring")
	}
	return r.buf[r.head]
}

// Pop removes and returns the oldest item. The ring must not be empty.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sched: Pop on an empty Ring")
	}
	var zero T
	x := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return x
}

// grow doubles the buffer, unwrapping the queued items to its front.
func (r *Ring[T]) grow() {
	buf := make([]T, max(2*len(r.buf), ringMinCap))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
