package sched

import (
	"fmt"
	"testing"
)

// splitmix64 is the test's deterministic PRNG (no seed-dependent flakiness,
// no math/rand ordering changes across Go versions).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestWheelFiresInOrder is the core property: events fire in exact
// (cycle, registration order) sequence, whatever order they were scheduled
// in and however far apart their cycles are (past the wheel's horizon too).
func TestWheelFiresInOrder(t *testing.T) {
	rng := splitmix64(1)
	w := new(Wheel)
	type ev struct {
		cycle uint64
		id    int
	}
	var want []ev
	var got []ev
	// Cycles dense near the base and sparse out to 2^40, far past the
	// horizon, with deliberate duplicates to exercise same-cycle ordering.
	for id := 0; id < 2000; id++ {
		var c uint64
		switch id % 4 {
		case 0:
			c = rng.next() % 64
		case 1:
			c = rng.next() % 4096
		case 2:
			c = rng.next() % (1 << 18)
		default:
			c = rng.next() % (1 << 40)
		}
		want = append(want, ev{c, id})
		w.AtCall(c, func(uint64, any) { got = append(got, ev{c, id}) }, nil)
	}
	// Reference order: stable sort by cycle (registration order within one).
	for i := 1; i < len(want); i++ {
		for j := i; j > 0 && want[j-1].cycle > want[j].cycle; j-- {
			want[j-1], want[j] = want[j], want[j-1]
		}
	}
	// Advance through every scheduled cycle in order, never skipping a due
	// one; repeating a cycle fires nothing new.
	for _, e := range want {
		w.Advance(e.cycle)
	}
	if w.Len() != 0 {
		t.Fatalf("Len() = %d after drain, want 0", w.Len())
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = {cy=%d id=%d}, want {cy=%d id=%d}",
				i, got[i].cycle, got[i].id, want[i].cycle, want[i].id)
		}
	}
}

// TestWheelSameCycleReschedule: an event scheduled for cycle c by a callback
// firing at cycle c joins the current batch, after everything already queued
// for c — the upgrade over the old map wheel, which lost such events.
func TestWheelSameCycleReschedule(t *testing.T) {
	w := new(Wheel)
	var got []string
	w.AtCall(100, func(uint64, any) {
		got = append(got, "a")
		w.AtCall(100, func(uint64, any) {
			got = append(got, "a-child")
			w.AtCall(100, func(uint64, any) { got = append(got, "a-grandchild") }, nil)
		}, nil)
	}, nil)
	w.AtCall(100, func(uint64, any) { got = append(got, "b") }, nil)
	w.Advance(100)
	want := []string{"a", "b", "a-child", "a-grandchild"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batch order = %v, want %v", got, want)
	}
	if w.Pending() {
		t.Fatal("Pending() after the batch drained")
	}
}

// TestWheelStranding pins the map-wheel compatibility semantics: an event at
// a cycle Advance skipped never fires, but it keeps the wheel Pending —
// exactly like an unvisited map key.
func TestWheelStranding(t *testing.T) {
	w := new(Wheel)
	var fired []uint64
	for _, c := range []uint64{5, 70, 70, 4100, 9000} {
		w.AtCall(c, func(uint64, any) { fired = append(fired, c) }, nil)
	}
	w.Advance(9000) // skips 5, 70, 70 and 4100
	if fmt.Sprint(fired) != "[9000]" {
		t.Fatalf("fired = %v, want [9000]", fired)
	}
	if !w.Pending() || w.Len() != 4 {
		t.Fatalf("Pending=%v Len=%d, want stranded events still pending", w.Pending(), w.Len())
	}
	// Later advances never resurrect stranded events.
	w.Advance(20000)
	if len(fired) != 1 || w.Len() != 4 {
		t.Fatalf("stranded events fired late: fired=%v Len=%d", fired, w.Len())
	}
	// Scheduling at or before the advanced-past cycle strands immediately.
	w.AtCall(20000, func(uint64, any) { fired = append(fired, 20000) }, nil)
	w.Advance(30000)
	if len(fired) != 1 || w.Len() != 5 {
		t.Fatalf("at-base event fired: fired=%v Len=%d", fired, w.Len())
	}
}

// TestWheelAdvanceSkipsNothingDue: Advance(c) with c before every scheduled
// event moves the base without firing or stranding anything — the chip loop
// advances every component's wheel through such cycles all the time.
func TestWheelAdvanceSkipsNothingDue(t *testing.T) {
	w := new(Wheel)
	ran := false
	w.AtCall(1_000_000, func(uint64, any) { ran = true }, nil)
	for _, c := range []uint64{10, 63, 64, 4095, 4096, 999_999} {
		w.Advance(c)
		if ran || w.Len() != 1 {
			t.Fatalf("Advance(%d) disturbed a future event (ran=%v Len=%d)", c, ran, w.Len())
		}
	}
	w.Advance(1_000_000)
	if !ran || w.Pending() {
		t.Fatalf("event at 1000000 did not fire (ran=%v)", ran)
	}
}

// TestWheelRandomizedAgainstModel drives the wheel through a long random
// schedule/advance workload and checks every observable (firing sequence,
// Pending, Len) against a brute-force reference with the same
// exact-cycle-plus-stranding semantics.
func TestWheelRandomizedAgainstModel(t *testing.T) {
	type mev struct {
		cycle    uint64
		id       int
		stranded bool
	}
	rng := splitmix64(42)
	w := new(Wheel)
	var model []*mev
	var got, want []int
	now := uint64(0)
	nextID := 0
	for step := 0; step < 20000; step++ {
		switch rng.next() % 7 {
		case 0, 1, 2, 3: // schedule at a future cycle
			c := now + 1 + rng.next()%(1<<(rng.next()%20))
			id := nextID
			nextID++
			model = append(model, &mev{cycle: c, id: id})
			w.AtCall(c, func(uint64, any) { got = append(got, id) }, nil)
		case 4, 5: // advance to the next live future event (skipping none)
			n := ^uint64(0)
			for _, m := range model {
				if !m.stranded && m.cycle > now && m.cycle < n {
					n = m.cycle
				}
			}
			if n == ^uint64(0) {
				continue
			}
			now = n
			w.Advance(now)
			for _, m := range model {
				if m.cycle == now && !m.stranded {
					want = append(want, m.id)
					m.stranded = true // consumed
				}
			}
		case 6: // jump past events, stranding them
			now += 1 + rng.next()%2048
			w.Advance(now)
			for _, m := range model {
				if m.cycle == now && !m.stranded {
					want = append(want, m.id)
					m.stranded = true // consumed
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: fired %d events, model fired %d", step, len(got), len(want))
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d: got id=%d, model id=%d", i, got[i], want[i])
		}
	}
	// Live events = scheduled, not fired (stranded-by-skip events count as
	// live-but-dead, exactly like unvisited map keys).
	live := 0
	for _, m := range model {
		if !m.stranded {
			live++ // pending, or stranded by a case-6 jump
		}
	}
	if w.Len() != live {
		t.Fatalf("Len() = %d, model says %d live events", w.Len(), live)
	}
}

// TestWheelFarEventsKeepOrder: an event scheduled beyond the wheel's horizon
// still fires in registration order against events scheduled for the same
// cycle once that cycle came within range, and one an Advance jumps over is
// stranded like any other.
func TestWheelFarEventsKeepOrder(t *testing.T) {
	w := new(Wheel)
	var got []string
	rec := func(_ uint64, a any) { got = append(got, a.(string)) }
	w.AtCall(5000, func(c uint64, a any) {
		rec(c, a)
		w.AtCall(5000, rec, "C")
	}, "A")
	w.Advance(4500) // 5000 is now within 1024 cycles
	w.AtCall(5000, rec, "B")
	w.Advance(5000)
	if fmt.Sprint(got) != "[A B C]" {
		t.Fatalf("firing order = %v, want [A B C]", got)
	}
	if w.Pending() {
		t.Fatalf("Len() = %d after the batch drained", w.Len())
	}

	w.AtCall(9000, rec, "D") // more than 1024 cycles ahead
	w.Advance(12000)         // jumps over 9000
	w.Advance(12001)
	if len(got) != 3 || w.Len() != 1 {
		t.Fatalf("jumped-over far event: fired=%v Len=%d, want it stranded and counted", got, w.Len())
	}
}
