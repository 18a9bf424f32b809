package sched

import "testing"

// TestRingFIFOAcrossWrapAndGrowth interleaves pushes and pops against a
// slice model, so the ring's head wraps around its buffer many times and the
// buffer doubles while wrapped; every pop must return the model's oldest
// item.
func TestRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	rng := splitmix64(7)
	var r Ring[int]
	var model []int
	next := 0
	for step := 0; step < 20000; step++ {
		// Bias toward pushes early so the ring grows past several sizes,
		// then toward pops so it drains and wraps.
		push := rng.next()%100 < 60
		if step > 10000 {
			push = rng.next()%100 < 40
		}
		if push || len(model) == 0 {
			r.Push(next)
			model = append(model, next)
			next++
		} else {
			if got := r.Peek(); got != model[0] {
				t.Fatalf("step %d: Peek = %d, want %d", step, got, model[0])
			}
			if got := r.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		}
		if r.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(model))
		}
	}
	for len(model) > 0 {
		if got := r.Pop(); got != model[0] {
			t.Fatalf("drain: Pop = %d, want %d", got, model[0])
		}
		model = model[1:]
	}
}

// TestRingPopLeavesNoPointer: a popped slot is zeroed, so the ring does not
// keep a popped item's referent alive; and the buffer never shrinks.
func TestRingPopLeavesNoPointer(t *testing.T) {
	var r Ring[*int]
	vals := make([]int, 20)
	for i := range vals {
		r.Push(&vals[i])
	}
	size := len(r.buf)
	for i := range vals {
		if got := r.Pop(); got != &vals[i] {
			t.Fatalf("Pop %d returned the wrong pointer", i)
		}
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a pointer after every item was popped", i)
		}
	}
	if len(r.buf) != size {
		t.Fatalf("buffer shrank from %d to %d slots", size, len(r.buf))
	}
}

// TestRingEmptyPanics: Peek and Pop on an empty ring are caller bugs.
func TestRingEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(*Ring[int]){
		"Peek": func(r *Ring[int]) { r.Peek() },
		"Pop":  func(r *Ring[int]) { r.Pop() },
	} {
		var r Ring[int]
		r.Push(1)
		r.Pop()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty ring did not panic", name)
				}
			}()
			f(&r)
		}()
	}
}
