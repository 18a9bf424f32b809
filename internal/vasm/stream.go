package vasm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
)

// Kernel is a hand-coded benchmark kernel: it drives the Builder, which
// functionally executes and records every instruction.
type Kernel func(b *Builder)

// A trace crosses to its consumer in batches. The first holds firstBatch
// records, so the chip loop starts on a kernel's first instructions instead
// of waiting for a full batch, and each later one twice its predecessor, up
// to batchSize.
const (
	firstBatch = 64
	batchSize  = 1024
)

// freeBatches is the free list every trace takes its batches from and
// returns them to, so a finished trace hands its batches to the next one.
// It is bounded: beyond its capacity an exhausted batch is left to the
// collector.
var freeBatches = make(chan []DynInst, 16)

// getBatch returns an empty batch of capacity batchSize.
func getBatch() []DynInst {
	select {
	case b := <-freeBatches:
		return b
	default:
		return make([]DynInst, 0, batchSize)
	}
}

// putBatch returns an exhausted batch to the free list. Its records drop
// their address slices first, so a batch waiting there keeps no finished
// trace's address arenas reachable.
func putBatch(b []DynInst) {
	for i := range b {
		b[i].Eff.Addrs, b[i].Eff.ElemIdx = nil, nil
	}
	select {
	case freeBatches <- b[:0]:
	default:
	}
}

// Trace streams the dynamic instructions of a kernel to a consumer without
// materialising the whole run. The kernel executes in a producer goroutine;
// instruction batches cross a channel. Close must be called if the consumer
// abandons the trace early. Next returning nil means the kernel finished,
// or died, or the trace was Cut: check Drained and Err to distinguish,
// because a trace that aborts mid-kernel never emits HALT and would
// otherwise leave the timing model waiting for one.
type Trace struct {
	ch   chan []DynInst
	done chan struct{}
	cur  []DynInst
	pos  int
	n    uint64

	// drained is set, on the consumer's goroutine, once Next has found the
	// producer finished and every record handed out.
	drained bool

	stop sync.Once   // closes done, for Cut or Close, whichever comes first
	cut  atomic.Bool // Close does not wait for the producer

	mu  sync.Mutex
	err error
}

type traceAbort struct{}

// NewTrace starts kernel on machine m and returns the trace reader.
func NewTrace(m *arch.Machine, kernel Kernel) *Trace {
	t := &Trace{
		ch:   make(chan []DynInst, 2),
		done: make(chan struct{}),
	}
	go func() {
		defer close(t.ch)
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			switch ab := r.(type) {
			case traceAbort:
				// Consumer abandoned the trace; nothing to report.
			case buildAbort:
				t.setErr(ab.err)
			default:
				// A Go panic inside the kernel function itself (not the
				// functional machine) — surface it as an error instead of
				// crashing the process from a goroutine nobody can recover.
				t.setErr(&BuildError{Cause: "kernel panic: " + fmt.Sprint(r)})
			}
		}()
		batch, limit := getBatch(), firstBatch
		b := NewBuilder(m, func() *DynInst {
			if len(batch) == limit {
				select {
				case t.ch <- batch:
				case <-t.done:
					panic(traceAbort{})
				}
				batch, limit = getBatch(), min(2*limit, batchSize)
			}
			batch = batch[:len(batch)+1]
			return &batch[len(batch)-1]
		})
		kernel(b)
		if len(batch) > 0 {
			select {
			case t.ch <- batch:
			case <-t.done:
			}
		}
	}()
	return t
}

func (t *Trace) setErr(err error) {
	t.mu.Lock()
	t.err = err
	t.mu.Unlock()
}

// Err returns the error that aborted the producer, or nil. Safe to call
// from the consumer while the producer is still running. Once Drained
// reports true it is final: the simulator reads it then, so a dead trace
// (which will never emit HALT) is reported at a cycle that depends only on
// the records it held, not on how far the producer had got.
func (t *Trace) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Next returns the next dynamic instruction, or nil at end of trace. The
// returned pointer is valid only until the following batch boundary is
// crossed — the exhausted batch goes back to the free list there, for this
// trace's producer or another trace's to refill — so the timing models copy
// what they retain.
func (t *Trace) Next() *DynInst {
	for t.pos >= len(t.cur) {
		if t.cur != nil {
			putBatch(t.cur)
			t.cur = nil
		}
		var (
			batch []DynInst
			ok    bool
		)
		select {
		case batch, ok = <-t.ch:
		default:
			// The producer is behind: wait for it, or for Cut.
			select {
			case batch, ok = <-t.ch:
			case <-t.done:
				return nil
			}
		}
		if !ok {
			t.drained = true
			return nil
		}
		t.cur, t.pos = batch, 0
	}
	d := &t.cur[t.pos]
	t.pos++
	t.n++
	return d
}

// Consumed returns how many instructions Next has handed out.
func (t *Trace) Consumed() uint64 { return t.n }

// Drained reports whether Next has returned nil because the producer
// finished: the trace holds no further record, and Err is final. Call it
// from the consumer's goroutine.
func (t *Trace) Drained() bool { return t.drained }

// Cut releases a consumer blocked in Next, which from then on returns nil
// whenever no record is ready, and stops the producer at its next batch.
// Close then returns without waiting for the producer, which may never
// reach one: its goroutine lives on until the kernel returns or fills a
// batch. Safe to call from any goroutine, more than once.
func (t *Trace) Cut() {
	t.cut.Store(true)
	t.stop.Do(func() { close(t.done) })
}

// Close releases the producer goroutine if the trace is abandoned early,
// waits for it to exit unless the trace was Cut, and returns the trace's
// batches to the free list.
func (t *Trace) Close() {
	t.stop.Do(func() { close(t.done) })
	if !t.cut.Load() {
		// Wait for the producer to exit, recycling the batches it sent.
		for b := range t.ch {
			putBatch(b)
		}
	}
	if t.cur != nil {
		putBatch(t.cur)
		t.cur, t.pos = nil, 0
	}
}

// CollectChecked runs kernel to completion and returns the full trace, or
// the positional error of the first failing instruction. Intended for tests
// and small kernels only.
func CollectChecked(m *arch.Machine, kernel Kernel) (out []DynInst, err error) {
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(buildAbort)
			if !ok {
				panic(r)
			}
			// The failing instruction took a record but never finished it.
			out, err = out[:len(out)-1], ab.err
		}
	}()
	b := NewBuilder(m, func() *DynInst {
		out = append(out, DynInst{})
		return &out[len(out)-1]
	})
	kernel(b)
	return out, nil
}

// Collect is CollectChecked for callers that treat a bad kernel as a
// programming error; it panics with the positional BuildError.
func Collect(m *arch.Machine, kernel Kernel) []DynInst {
	out, err := CollectChecked(m, kernel)
	if err != nil {
		panic(err)
	}
	return out
}
