package core

import (
	"math/bits"

	"repro/internal/pipe"
)

// storeTable is a thread's store-disambiguation table: for each quadword
// address, the youngest renamed, unretired store writing it. It has the
// meaning of a map[uint64]*pipe.UOp without a Go map's hashing and
// bookkeeping on the per-instruction path: open addressing with linear
// probing, and backward-shift deletion, so no tombstones accumulate. The
// core sizes it to at least twice the thread's reorder-buffer share, and
// every entry names a store in that buffer, so it is never more than half
// full and a probe always reaches an empty slot.
type storeTable struct {
	slots []storeSlot
	shift uint // 64 - log2(len(slots))
}

type storeSlot struct {
	addr uint64
	u    *pipe.UOp // nil marks an empty slot
}

// newStoreTable returns an empty table of at least 2*entries slots (a power
// of two).
func newStoreTable(entries int) storeTable {
	lg := bits.Len(uint(max(2*entries, 2) - 1))
	return storeTable{slots: make([]storeSlot, 1<<lg), shift: uint(64 - lg)}
}

// home is addr's preferred slot (Fibonacci hashing: the high bits of the
// product spread the low-entropy aligned addresses over the table).
func (t *storeTable) home(addr uint64) int {
	return int((addr * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding addr, or the empty slot ending its probe run.
func (t *storeTable) find(addr uint64) int {
	mask := len(t.slots) - 1
	i := t.home(addr)
	for t.slots[i].u != nil && t.slots[i].addr != addr {
		i = (i + 1) & mask
	}
	return i
}

// get returns the store mapped at addr, or nil.
func (t *storeTable) get(addr uint64) *pipe.UOp { return t.slots[t.find(addr)].u }

// set maps addr to u, replacing any earlier store at that address.
func (t *storeTable) set(addr uint64, u *pipe.UOp) {
	t.slots[t.find(addr)] = storeSlot{addr: addr, u: u}
}

// del removes addr's entry, if any. Entries later in the probe run move back
// into the hole when their home slot allows it, so every remaining key stays
// reachable from its home without crossing an empty slot.
func (t *storeTable) del(addr uint64) {
	mask := len(t.slots) - 1
	i := t.find(addr)
	if t.slots[i].u == nil {
		return
	}
	for j := (i + 1) & mask; t.slots[j].u != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when i lies on its probe
		// path, i.e. no further from its home than j is.
		if (j-t.home(t.slots[j].addr))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = storeSlot{}
}
