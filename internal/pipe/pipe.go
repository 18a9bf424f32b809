// Package pipe holds the building blocks shared by the EV8 core and Vbox
// timing models: the in-flight micro-op record with its dataflow links, an
// oldest-first ready queue, per-class functional-unit pools, and the branch
// predictor.
package pipe

import (
	"container/heap"

	"repro/internal/arch"
	"repro/internal/isa"
)

// State tracks a micro-op through the pipeline.
type State uint8

const (
	// StateWaiting: renamed, waiting on source operands.
	StateWaiting State = iota
	// StateReady: all sources available, waiting for an issue slot.
	StateReady
	// StateIssued: executing (or walking the memory pipeline).
	StateIssued
	// StateDone: result available; waits in the ROB for in-order retire.
	StateDone
	// StateRetired: left the machine.
	StateRetired
)

// UOp is one in-flight dynamic instruction. The same record flows through
// the core and, for vector instructions, the Vbox (the paper's narrow
// interface: the core fetches, renames and retires on the Vbox's behalf).
type UOp struct {
	Seq  uint64
	Site uint32
	Inst isa.Inst
	Eff  arch.Effect

	State State

	// Dataflow: deps counts unresolved sources; Consumers are woken when
	// this op completes.
	Deps      int
	Consumers []*UOp

	FetchCyc uint64
	ReadyCyc uint64 // cycle all operands became available
	DoneCyc  uint64

	// VBox bookkeeping.
	SlicesOut int  // slices still in flight in the L2
	InVbox    bool // dispatched over the 3-instruction bus
	AgenDone  bool // address generation finished
	ScalarsIn bool // scalar operands transferred over the operand buses
}

// MarkReady transitions the op to Ready at cycle c, recording when its last
// operand arrived.
func (u *UOp) MarkReady(c uint64) {
	u.State = StateReady
	if c > u.ReadyCyc {
		u.ReadyCyc = c
	}
}

// ---- ready queue (oldest-first issue policy) ----

// ReadyQueue is a min-heap of ready ops ordered by sequence number, so the
// schedulers issue oldest-first like real wakeup/select logic.
type ReadyQueue struct{ h uopHeap }

func (q *ReadyQueue) Push(u *UOp) { heap.Push(&q.h, u) }
func (q *ReadyQueue) Pop() *UOp   { return heap.Pop(&q.h).(*UOp) }
func (q *ReadyQueue) Peek() *UOp  { return q.h[0] }
func (q *ReadyQueue) Len() int    { return len(q.h) }

type uopHeap []*UOp

func (h uopHeap) Len() int            { return len(h) }
func (h uopHeap) Less(i, j int) bool  { return h[i].Seq < h[j].Seq }
func (h uopHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *uopHeap) Push(x interface{}) { *h = append(*h, x.(*UOp)) }
func (h *uopHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// ---- functional unit pools ----

// FUPool enforces per-cycle issue limits for one class of functional units,
// plus busy periods for unpipelined units (divide/sqrt).
type FUPool struct {
	Width     int      // issues per cycle when pipelined
	busyUntil []uint64 // per-unit next-free cycle (unpipelined reservations)
	usedAt    uint64   // cycle the per-cycle counter refers to
	used      int
}

// NewFUPool returns a pool issuing up to width ops per cycle, with width
// underlying units for unpipelined reservations.
func NewFUPool(width int) *FUPool {
	return &FUPool{Width: width, busyUntil: make([]uint64, width)}
}

// TryIssue attempts to issue at cycle c an op that occupies its unit for
// occupancy cycles (1 for pipelined ops). It returns false when the
// per-cycle width is exhausted or no unit is free.
func (p *FUPool) TryIssue(c uint64, occupancy int) bool {
	if p.Width == 0 {
		return false
	}
	if p.usedAt != c {
		p.usedAt, p.used = c, 0
	}
	if p.used >= p.Width {
		return false
	}
	for i := range p.busyUntil {
		if p.busyUntil[i] <= c {
			if occupancy > 1 {
				p.busyUntil[i] = c + uint64(occupancy)
			}
			p.used++
			return true
		}
	}
	return false
}

// ---- branch prediction ----

// Predictor is a table of 2-bit saturating counters keyed by static site,
// standing in for EV8's (far larger) predictor. On the loop-closing
// branches the kernels emit, it converges to predicting taken and
// mispredicts once per loop exit — the behaviour that matters for the
// vector/scalar comparison.
type Predictor struct {
	counters map[uint32]uint8
}

// NewPredictor returns an empty predictor (counters start weakly taken,
// matching the compiler's backward-taken hint).
func NewPredictor() *Predictor {
	return &Predictor{counters: make(map[uint32]uint8)}
}

// Predict returns the predicted direction and updates the counter with the
// actual outcome, reporting whether the prediction was wrong.
func (p *Predictor) Predict(site uint32, taken bool) (mispredict bool) {
	ctr, ok := p.counters[site]
	if !ok {
		ctr = 2 // weakly taken
	}
	pred := ctr >= 2
	if taken && ctr < 3 {
		ctr++
	} else if !taken && ctr > 0 {
		ctr--
	}
	p.counters[site] = ctr
	return pred != taken
}
