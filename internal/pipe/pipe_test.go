package pipe

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestReadyQueueOldestFirst(t *testing.T) {
	var q ReadyQueue
	for _, seq := range []uint64{5, 1, 9, 3, 7} {
		q.Push(&UOp{Seq: seq})
	}
	var got []uint64
	for q.Len() > 0 {
		got = append(got, q.Pop().Seq)
	}
	want := []uint64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestReadyQueueProperty(t *testing.T) {
	f := func(seqs []uint64) bool {
		var q ReadyQueue
		for _, s := range seqs {
			q.Push(&UOp{Seq: s})
		}
		prev := uint64(0)
		for q.Len() > 0 {
			s := q.Pop().Seq
			if s < prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadyQueueInterleaved: under random interleaved pushes and pops of
// unique sequence numbers, every pop returns the oldest queued op, checked
// against a sorted model of the queue.
func TestReadyQueueInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q ReadyQueue
	var model []uint64
	seqs := rng.Perm(5000)
	for step := 0; len(seqs) > 0 || len(model) > 0; step++ {
		if len(seqs) > 0 && (len(model) == 0 || rng.Intn(3) > 0) {
			s := uint64(seqs[0])
			seqs = seqs[1:]
			q.Push(&UOp{Seq: s})
			model = append(model, s)
			continue
		}
		slices.Sort(model)
		if got := q.Peek().Seq; got != model[0] {
			t.Fatalf("step %d: Peek seq %d, want %d", step, got, model[0])
		}
		if got := q.Pop().Seq; got != model[0] {
			t.Fatalf("step %d: Pop seq %d, want %d", step, got, model[0])
		}
		model = model[1:]
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(model))
		}
	}
}

func TestFUPoolWidth(t *testing.T) {
	p := NewFUPool(2)
	if !p.TryIssue(1, 1) || !p.TryIssue(1, 1) {
		t.Fatal("pool of width 2 must accept two ops in one cycle")
	}
	if p.TryIssue(1, 1) {
		t.Fatal("third issue in one cycle must fail")
	}
	if !p.TryIssue(2, 1) {
		t.Fatal("next cycle must accept again")
	}
}

func TestFUPoolUnpipelined(t *testing.T) {
	p := NewFUPool(1)
	if !p.TryIssue(1, 10) {
		t.Fatal("first unpipelined op must issue")
	}
	for cy := uint64(2); cy <= 10; cy++ {
		if p.TryIssue(cy, 10) {
			t.Fatalf("unit should be busy at cycle %d", cy)
		}
	}
	if !p.TryIssue(11, 10) {
		t.Fatal("unit must free at cycle 11")
	}
}

func TestFUPoolZeroWidth(t *testing.T) {
	p := NewFUPool(0)
	if p.TryIssue(1, 1) {
		t.Fatal("zero-width pool must never issue")
	}
}

func TestPredictorLoopBranch(t *testing.T) {
	p := NewPredictor()
	// A loop branch: taken 9 times, then not taken.
	mis := 0
	for i := 0; i < 9; i++ {
		if p.Predict(1, true) {
			mis++
		}
	}
	if mis != 0 {
		t.Fatalf("loop iterations mispredicted %d times", mis)
	}
	if !p.Predict(1, false) {
		t.Fatal("loop exit should mispredict")
	}
	// Re-entering the loop: the 2-bit counter recovers within one step.
	wrong := 0
	for i := 0; i < 5; i++ {
		if p.Predict(1, true) {
			wrong++
		}
	}
	if wrong > 1 {
		t.Fatalf("re-entry mispredicted %d times, want ≤1", wrong)
	}
}

func TestPredictorAlternating(t *testing.T) {
	p := NewPredictor()
	mis := 0
	for i := 0; i < 100; i++ {
		if p.Predict(7, i%2 == 0) {
			mis++
		}
	}
	// A 2-bit counter cannot do better than ~50% on alternation.
	if mis < 40 {
		t.Fatalf("alternating pattern mispredicted only %d/100 — too clairvoyant", mis)
	}
}

func TestUOpMarkReady(t *testing.T) {
	u := &UOp{Inst: isa.Inst{Op: isa.OpVADDT}}
	u.MarkReady(10)
	if u.State != StateReady || u.ReadyCyc != 10 {
		t.Fatalf("state=%v readyCyc=%d", u.State, u.ReadyCyc)
	}
	u.MarkReady(5) // earlier wake must not move ReadyCyc backwards
	if u.ReadyCyc != 10 {
		t.Fatalf("ReadyCyc regressed to %d", u.ReadyCyc)
	}
}
