package sched

import "testing"

// TestTableMatchesMap drives a small table and a map[uint64]*T with the
// same random set/get/delete sequence. The
// keys are chosen so their home slots crowd the end of the 8-slot table and
// its first slot, so probe runs wrap around, and deletes land inside those
// runs; after every step each key must read the same from both.
func TestTableMatchesMap(t *testing.T) {
	tab := NewTable[int](4)
	if len(tab.slots) != 8 {
		t.Fatalf("NewTable(4) has %d slots, want 8", len(tab.slots))
	}
	// Pick quadword addresses by home slot: four homed at the last slot,
	// three at the one before, two at slot 0 and two mid-table.
	want := map[int]int{7: 4, 6: 3, 0: 2, 3: 2}
	var keys []uint64
	for a := uint64(8); len(keys) < 11; a += 8 {
		if h := tab.home(a); want[h] > 0 {
			want[h]--
			keys = append(keys, a)
		}
	}
	vals := make([]int, 64)
	model := map[uint64]*int{}
	var rng uint64 = 12345
	rand := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	wrappedDeletes := 0
	for step := 0; step < 50000; step++ {
		k := keys[rand(len(keys))]
		switch r := rand(10); {
		case r < 5:
			// Keep at most 6 of the 8 slots occupied: long runs, but a
			// probe always meets an empty slot.
			if _, ok := model[k]; ok || len(model) < 6 {
				u := &vals[rand(len(vals))]
				tab.Set(k, u)
				model[k] = u
			}
		case r < 8:
			if _, ok := model[k]; ok && runWraps(&tab, tab.find(k)) {
				wrappedDeletes++
			}
			tab.Del(k)
			delete(model, k)
		default:
			if got := tab.Get(k); got != model[k] {
				t.Fatalf("step %d: get(%#x) = %p, map has %p", step, k, got, model[k])
			}
		}
		for _, k := range keys {
			if got := tab.Get(k); got != model[k] {
				t.Fatalf("step %d: get(%#x) = %p, map has %p", step, k, got, model[k])
			}
		}
		occupied := 0
		for _, s := range tab.slots {
			if s.val != nil {
				occupied++
			}
		}
		if occupied != len(model) {
			t.Fatalf("step %d: %d occupied slots, map holds %d keys", step, occupied, len(model))
		}
	}
	if wrappedDeletes < 100 {
		t.Fatalf("only %d deletes hit a probe run wrapping the table's end", wrappedDeletes)
	}
}

// runWraps reports whether the run of occupied slots holding slot i spans
// the table's last and first slots.
func runWraps(tab *Table[int], i int) bool {
	n := len(tab.slots)
	if tab.slots[n-1].val == nil || tab.slots[0].val == nil {
		return false
	}
	// Walk from i toward the end of the table; reaching slot n-1 without a
	// gap puts i in the wrapping run, as does walking back to slot 0.
	for j := i; tab.slots[j].val != nil; j++ {
		if j == n-1 {
			return true
		}
	}
	for j := i; tab.slots[j].val != nil; j-- {
		if j == 0 {
			return true
		}
	}
	return false
}
