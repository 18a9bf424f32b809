// Package sched provides the simulator's event scheduling machinery: a
// hierarchical timing wheel (Wheel) that each component (core, vbox, l2,
// zbox) uses as its queue of completion events, the FIFO ring (Ring)
// behind the components' request queues, and the open-addressed table
// (Table) behind their per-address lookups. The chip loop ticks every
// component once per cycle, and each tick advances the component's wheel to
// that cycle, firing whatever is due.
//
// At and Advance are O(1) amortised, and the wheel is fully deterministic:
// events fire in exact (cycle, registration order) sequence, with no map
// iteration anywhere. Its semantics match the map-keyed event multimaps it
// replaced:
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

import "math/bits"

const (
	slotBits  = 6
	slotCount = 1 << slotBits // 64 slots per level
	slotMask  = slotCount - 1
	// 11 levels x 6 bits = 66 bits: the top level covers the full uint64
	// cycle space, so placement never overflows.
	numLevels = (64 + slotBits - 1) / slotBits
)

// event is one scheduled callback. Events are wheel-owned and recycled
// through a free list; callers never hold them.
type event struct {
	cycle uint64
	fn    func()
	// AtCall form: fnc(cycle, arg). Splitting the callback from its operand
	// lets hot paths schedule a long-lived func value plus a pointer-shaped
	// argument with zero heap allocations, where At's closures cost one
	// allocation per event.
	fnc  func(uint64, any)
	arg  any
	next *event
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

// level is one ring of the hierarchy: level L's slots are 64^L cycles wide.
// occ has bit s set iff slot s holds at least one event.
type level struct {
	occ  uint64
	slot [slotCount]list
}

// Wheel is a hierarchical timing wheel over the full uint64 cycle space.
// The zero value is ready to use (base 0). Not safe for concurrent use —
// each component owns its wheel, like the maps it replaces.
//
// Invariant (restored after every Advance): every event filed in a slot sits
// at the lowest level whose slot width can still distinguish it from base,
// i.e. level floor(log64(cycle XOR base)). Crossing a slot-0 window boundary
// cascades the entered higher-level slot down, so an event always reaches
// level 0 before its cycle comes up.
type Wheel struct {
	base     uint64 // cycle of the last Advance (or 0)
	n        int    // scheduled, not yet fired events, stranded included
	resident int    // events filed in level slots
	levels   [numLevels]level

	free *event
}

// NewWheel returns an empty wheel. Equivalent to new(Wheel); kept for
// symmetry with the constructors it replaces.
func NewWheel() *Wheel { return new(Wheel) }

func (w *Wheel) alloc() *event {
	e := w.free
	if e == nil {
		return &event{}
	}
	w.free = e.next
	return e
}

func (w *Wheel) recycle(e *event) {
	e.fn, e.fnc, e.arg = nil, nil, nil
	e.next = w.free
	w.free = e
}

// At schedules fn to run when Advance reaches exactly cycle c, after every
// event already scheduled for c. Scheduling at or before the last advanced
// cycle parks the event as stranded (it never fires but stays pending),
// except during Advance(c) itself, where an At(c, fn) joins the currently
// firing batch.
func (w *Wheel) At(c uint64, fn func()) {
	e := w.alloc()
	e.cycle, e.fn = c, fn
	w.n++
	w.place(e)
}

// AtCall schedules fn(c, arg) with the same semantics as At. It exists for
// allocation-free scheduling on hot paths: fn is typically a long-lived
// method value stored once at construction, and arg a pointer, so neither
// the callback nor its operand escapes per event.
func (w *Wheel) AtCall(c uint64, fn func(uint64, any), arg any) {
	e := w.alloc()
	e.cycle, e.fnc, e.arg = c, fn, arg
	w.n++
	w.place(e)
}

// Pending reports whether any events remain (stranded ones included).
func (w *Wheel) Pending() bool { return w.n > 0 }

// Len returns the number of scheduled, not yet fired events (stranded ones
// included).
func (w *Wheel) Len() int { return w.n }

// place files e at the level/slot determined by the highest bit in which its
// cycle differs from base. An event before base is stranded: it is dropped
// from the wheel for good but stays counted by Pending and Len, mirroring
// an unvisited key in the old map wheels.
func (w *Wheel) place(e *event) {
	if e.cycle < w.base {
		return
	}
	d := e.cycle ^ w.base
	lv := 0
	if d != 0 {
		lv = (bits.Len64(d) - 1) / slotBits
	}
	s := int(e.cycle>>(uint(lv)*slotBits)) & slotMask
	w.levels[lv].slot[s].push(e)
	w.levels[lv].occ |= 1 << uint(s)
	w.resident++
}

// Advance moves the wheel to cycle c and fires, in registration order, every
// event scheduled at exactly c — including events scheduled for c by the
// firing callbacks themselves. Events at cycles in (base, c) that were never
// advanced to are stranded (see the package comment). Advancing backwards is
// a no-op.
func (w *Wheel) Advance(c uint64) {
	if c < w.base {
		return
	}
	if c > w.base {
		w.moveBase(c)
	}
	w.fire(c)
}

// moveBase advances base to c in O(occupied slots), independent of the jump
// distance. Level by level, from the bottom up:
//
//   - A level whose (level+1)-window differs between old base and c lies
//     entirely before c: every event in it was skipped, so strand them all.
//   - The first level where the windows agree is the boundary: slots below
//     c's digit are skipped (strand), c's own slot is re-filed relative to
//     the new base (events land at lower levels, at cycle c itself, or —
//     if their cycle is below c — stranded), and slots above keep their
//     placement, which stays valid because their level-and-up windows did
//     not change.
//   - Levels above the boundary share all their windows with c already, so
//     their placements remain valid untouched.
func (w *Wheel) moveBase(c uint64) {
	old := w.base
	w.base = c
	if w.resident == 0 {
		return
	}
	for lv := 0; lv < numLevels; lv++ {
		shiftHi := uint(lv+1) * slotBits
		l := &w.levels[lv]
		if shiftHi < 64 && old>>shiftHi != c>>shiftHi {
			w.strandSlots(lv, l.occ) // whole level entirely before c
			continue
		}
		idx := uint(c>>(uint(lv)*slotBits)) & slotMask
		w.strandSlots(lv, l.occ&(1<<idx-1))
		if lv > 0 && l.occ&(1<<idx) != 0 {
			l.occ &^= 1 << idx
			for e := l.slot[idx].pop(); e != nil; e = l.slot[idx].pop() {
				w.resident--
				w.place(e)
			}
		}
		return
	}
}

// strandSlots strands every event in the level's slots selected by mask
// (see place).
func (w *Wheel) strandSlots(lv int, mask uint64) {
	l := &w.levels[lv]
	for mask != 0 {
		s := uint(bits.TrailingZeros64(mask))
		mask &^= 1 << s
		for e := l.slot[s].pop(); e != nil; e = l.slot[s].pop() {
			w.resident--
		}
		l.occ &^= 1 << s
	}
}

// fire runs the events scheduled at exactly cycle c (base == c here). The
// loop re-reads the slot head each iteration so callbacks scheduling more
// work for cycle c extend the current batch.
func (w *Wheel) fire(c uint64) {
	l := &w.levels[0]
	s := uint(c) & slotMask
	if l.occ&(1<<s) == 0 {
		return
	}
	for e := l.slot[s].pop(); e != nil; e = l.slot[s].pop() {
		w.resident--
		w.n--
		fn, fnc, arg := e.fn, e.fnc, e.arg
		w.recycle(e)
		if fnc != nil {
			fnc(c, arg)
		} else {
			fn()
		}
	}
	l.occ &^= 1 << s
}
