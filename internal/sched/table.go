package sched

import "math/bits"

// Table maps uint64 keys to *T with the meaning of a map[uint64]*T, minus
// a Go map's hashing and bookkeeping on per-cycle paths: open addressing
// with linear probing, and backward-shift deletion, so no tombstones
// accumulate. A nil value marks an empty slot, so nil cannot be stored. The
// table never grows: its owner sizes it to at least twice the keys it can
// hold at once (the core's store disambiguation holds at most a reorder
// buffer's stores, the L2's MAF index at most MAFSize lines), so it is never
// more than half full and a probe always reaches an empty slot.
type Table[T any] struct {
	slots []tableSlot[T]
	shift uint // 64 - log2(len(slots))
}

type tableSlot[T any] struct {
	key uint64
	val *T // nil marks an empty slot
}

// NewTable returns an empty table of at least 2*entries slots (a power of
// two).
func NewTable[T any](entries int) Table[T] {
	lg := bits.Len(uint(max(2*entries, 2) - 1))
	return Table[T]{slots: make([]tableSlot[T], 1<<lg), shift: uint(64 - lg)}
}

// home is key's preferred slot (Fibonacci hashing: the high bits of the
// product spread the low-entropy aligned addresses over the table).
func (t *Table[T]) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding key, or the empty slot ending its probe run.
func (t *Table[T]) find(key uint64) int {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].val != nil && t.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// Get returns the value mapped at key, or nil.
func (t *Table[T]) Get(key uint64) *T { return t.slots[t.find(key)].val }

// Set maps key to val, replacing any earlier value at that key.
func (t *Table[T]) Set(key uint64, val *T) {
	t.slots[t.find(key)] = tableSlot[T]{key: key, val: val}
}

// Del removes key's entry, if any. Entries later in the probe run move back
// into the hole when their home slot allows it, so every remaining key stays
// reachable from its home without crossing an empty slot.
func (t *Table[T]) Del(key uint64) {
	mask := len(t.slots) - 1
	i := t.find(key)
	if t.slots[i].val == nil {
		return
	}
	for j := (i + 1) & mask; t.slots[j].val != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when i lies on its probe
		// path, i.e. no further from its home than j is.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[T]{}
}
