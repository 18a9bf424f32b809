// Package pipe holds the building blocks shared by the EV8 core and Vbox
// timing models: the in-flight micro-op record with its dataflow links, an
// oldest-first ready queue, per-class functional-unit pools, and the branch
// predictor.
package pipe

import (
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
	// Info is Inst's opcode metadata, looked up once when the core fills
	// the record at fetch; the core and the Vbox read it instead of
	// decoding the opcode again at every stage.
	Info *isa.Info

	State State

	// Dataflow: deps counts unresolved sources; Consumers are woken when
	// this op completes.
	Deps      int
	Consumers []*UOp

	FetchCyc uint64
	ReadyCyc uint64 // cycle all operands became available
	DoneCyc  uint64
}

// Fill makes u the record of a newly fetched instruction: it sets every
// field, clearing what the record's previous op left, and keeps the backing
// array of Consumers, which that op drained when it completed. Assigning
// field by field writes the record in place, where a composite literal
// would be built in a temporary and copied.
func (u *UOp) Fill(seq uint64, site uint32, in *isa.Inst, eff *arch.Effect, fetchCyc uint64) {
	u.Seq, u.Site, u.Inst, u.Eff, u.Info = seq, site, *in, *eff, in.Info()
	u.State, u.Deps, u.Consumers = StateWaiting, 0, u.Consumers[:0]
	u.FetchCyc, u.ReadyCyc, u.DoneCyc = fetchCyc, 0, 0
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

// ReadyQueue is a binary min-heap of ready ops ordered by sequence number,
// so the schedulers issue oldest-first like real wakeup/select logic.
// Sequence numbers are unique, so the pop order is fully determined.
type ReadyQueue struct{ h []*UOp }

// Len returns the number of queued ops.
func (q *ReadyQueue) Len() int { return len(q.h) }

// Peek returns the oldest queued op without removing it.
func (q *ReadyQueue) Peek() *UOp { return q.h[0] }

// Push queues u.
func (q *ReadyQueue) Push(u *UOp) {
	q.h = append(q.h, u)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].Seq <= u.Seq {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = u
}

// Pop removes and returns the oldest queued op.
func (q *ReadyQueue) Pop() *UOp {
	h := q.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	q.h = h
	if n == 0 {
		return top
	}
	// Sift last down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].Seq < h[c].Seq {
			c = r
		}
		if last.Seq <= h[c].Seq {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
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
