// Package sched provides the simulator's event scheduling machinery: a
// timing wheel (Wheel) that each component (core, vbox, l2, zbox) uses as
// its queue of completion events, the FIFO ring (Ring) behind the
// components' request queues, and the open-addressed table (Table) behind
// their per-address lookups. The chip loop ticks every component once per
// cycle, and each tick advances the component's wheel to that cycle, firing
// whatever is due.
//
// AtCall and Advance are O(1) amortised, and the wheel is fully
// deterministic: events fire in exact (cycle, registration order) sequence,
// with no map iteration anywhere. Its semantics match the map-keyed event
// multimaps it replaced:
//
//   - Advance(c) fires only events scheduled at exactly cycle c. Events at
//     cycles an Advance jumped over are stranded: they never fire, but they
//     keep Pending() true, exactly like an unvisited map key. The chip loop
//     advances every wheel through every cycle, so a simulation never
//     strands anything.
//   - An event scheduled for cycle c while Advance(c) is firing joins the
//     current batch and fires in registration order. (The old map lost such
//     events forever; no component relies on that, and the property tests
//     pin the stronger contract.)
package sched

// horizon is the number of cycles the wheel's slots cover. No event the
// model schedules lands more than 751 cycles ahead (DESIGN.md, "The event
// queue"), so the far list stays empty in simulation.
const (
	horizon  = 1024
	slotMask = horizon - 1
)

// event is one scheduled callback, fn(cycle, arg). Events are wheel-owned
// and recycled through a free list; callers never hold them.
type event struct {
	cycle uint64
	fn    func(uint64, any)
	arg   any
	next  *event
}

// list is an intrusive FIFO of events; registration order is preserved
// everywhere (push to tail, pop from head).
type list struct {
	head, tail *event
}

func (l *list) push(e *event) {
	e.next = nil
	if l.tail == nil {
		l.head = e
	} else {
		l.tail.next = e
	}
	l.tail = e
}

func (l *list) pop() *event {
	e := l.head
	if e != nil {
		l.head = e.next
		if l.head == nil {
			l.tail = nil
		}
	}
	return e
}

// Wheel is a one-level timing wheel over the full uint64 cycle space. The
// zero value is ready to use (base 0). Not safe for concurrent use — each
// component owns its wheel, like the maps it replaces.
//
// Slot c mod horizon holds the events of cycle c for every c in
// [base, base+horizon); later events wait on the far list, in registration
// order, until the Advance that brings them within range re-files them.
type Wheel struct {
	base uint64 // cycle of the last Advance (or 0)
	n    int    // scheduled, not yet fired events, stranded included
	slot [horizon]list
	far  list

	free *event
}

func (w *Wheel) alloc() *event {
	e := w.free
	if e == nil {
		return &event{}
	}
	w.free = e.next
	return e
}

func (w *Wheel) recycle(e *event) {
	e.fn, e.arg = nil, nil
	e.next = w.free
	w.free = e
}

// AtCall schedules fn(c, arg) to run when Advance reaches exactly cycle c,
// after every event already scheduled for c. fn is typically a long-lived
// method value stored once at construction, and arg a pointer, so neither
// the callback nor its operand escapes per event. Scheduling before the
// last advanced cycle strands the event (it never fires but stays pending),
// and so does scheduling at it, except during Advance(c) itself, where an
// event for c joins the currently firing batch.
func (w *Wheel) AtCall(c uint64, fn func(uint64, any), arg any) {
	w.n++
	if c < w.base {
		return
	}
	e := w.alloc()
	e.cycle, e.fn, e.arg = c, fn, arg
	w.file(e)
}

// Pending reports whether any events remain (stranded ones included).
func (w *Wheel) Pending() bool { return w.n > 0 }

// Len returns the number of scheduled, not yet fired events (stranded ones
// included).
func (w *Wheel) Len() int { return w.n }

// file puts e, due at or after base, on its slot or on the far list.
func (w *Wheel) file(e *event) {
	if e.cycle-w.base >= horizon {
		w.far.push(e)
	} else {
		w.slot[e.cycle&slotMask].push(e)
	}
}

// Advance moves the wheel to cycle c and fires, in registration order, every
// event scheduled at exactly c — including events scheduled for c by the
// firing callbacks themselves. Events at cycles in [base, c) that were
// never fired are stranded (see the package comment). Advancing backwards
// is a no-op.
func (w *Wheel) Advance(c uint64) {
	if c < w.base {
		return
	}
	if c > w.base {
		// The slots of the cycles in [base, c) now stand for cycles past
		// the old horizon: whatever they still hold was skipped.
		for cy := w.base; cy < c && cy-w.base < horizon; cy++ {
			w.strand(&w.slot[cy&slotMask])
		}
		w.base = c
		// Far events re-file before any event for their cycle can be
		// scheduled directly on its slot, so registration order holds.
		if w.far.head != nil {
			far := w.far
			w.far = list{}
			for e := far.pop(); e != nil; e = far.pop() {
				if e.cycle < c {
					w.recycle(e) // jumped over: stranded
				} else {
					w.file(e)
				}
			}
		}
	}
	// Re-read the slot head each iteration so callbacks scheduling more
	// work for cycle c extend the current batch.
	l := &w.slot[c&slotMask]
	for e := l.pop(); e != nil; e = l.pop() {
		w.n--
		fn, arg := e.fn, e.arg
		w.recycle(e)
		fn(c, arg)
	}
}

// strand drops every event on l: they never fire but stay counted by
// Pending and Len, mirroring an unvisited key in the old map wheels.
func (w *Wheel) strand(l *list) {
	for e := l.pop(); e != nil; e = l.pop() {
		w.recycle(e)
	}
}
