package vasm

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/mem"
)

func newM() *arch.Machine { return arch.New(mem.New()) }

// daxpyKernel hand-codes y += a*x over n elements, the canonical vector
// kernel, and is reused by several tests.
func daxpyKernel(xBase, yBase uint64, n int, a float64) Kernel {
	return func(b *Builder) {
		rx, ry, rn, rs := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
		fa := isa.F(1)
		vx, vy := isa.V(0), isa.V(1)
		b.Li(rx, int64(xBase))
		b.Li(ry, int64(yBase))
		b.SetVSImm(rs, 8)
		b.M.WriteF(1, a) // scalar setup outside the timed loop
		full := n / isa.VLMax
		b.Loop(rn, full, func(int) {
			b.VLdQ(vx, rx, 0)
			b.VLdQ(vy, ry, 0)
			b.VS(isa.OpVSMULT, vx, vx, fa)
			b.VV(isa.OpVADDT, vy, vy, vx)
			b.VStQ(vy, ry, 0)
			b.AddImm(rx, rx, isa.VLMax*8)
			b.AddImm(ry, ry, isa.VLMax*8)
		})
		if rem := n % isa.VLMax; rem > 0 {
			b.SetVLImm(rs, rem)
			b.VLdQ(vx, rx, 0)
			b.VLdQ(vy, ry, 0)
			b.VS(isa.OpVSMULT, vx, vx, fa)
			b.VV(isa.OpVADDT, vy, vy, vx)
			b.VStQ(vy, ry, 0)
		}
		b.Halt()
	}
}

func TestDaxpyFunctionalCorrectness(t *testing.T) {
	m := newM()
	const n = 300 // exercises the remainder path (300 = 2*128 + 44)
	xBase, yBase := uint64(1<<20), uint64(2<<20)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i) * 0.5
		y := float64(n - i)
		m.Mem.StoreQ(xBase+uint64(i)*8, f64bits(x))
		m.Mem.StoreQ(yBase+uint64(i)*8, f64bits(y))
		want[i] = y + 3.0*x
	}
	trace := Collect(m, daxpyKernel(xBase, yBase, n, 3.0))
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	for i := 0; i < n; i++ {
		got := f64from(m.Mem.LoadQ(yBase + uint64(i)*8))
		if got != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, got, want[i])
		}
	}
}

func TestTraceEffectsCarryAddresses(t *testing.T) {
	m := newM()
	trace := Collect(m, daxpyKernel(1<<20, 2<<20, 256, 1.0))
	vloads := 0
	for i := range trace {
		d := &trace[i]
		if d.Inst.Op == isa.OpVLDQ {
			vloads++
			if len(d.Eff.Addrs) != isa.VLMax {
				t.Fatalf("vldq carries %d addrs", len(d.Eff.Addrs))
			}
			if d.Eff.Stride != 8 {
				t.Fatalf("vldq stride = %d", d.Eff.Stride)
			}
		}
	}
	if vloads != 4 {
		t.Fatalf("expected 4 vector loads, got %d", vloads)
	}
}

func TestLoopEmitsStableBranchSite(t *testing.T) {
	m := newM()
	trace := Collect(m, func(b *Builder) {
		b.Loop(isa.R(1), 5, func(int) {
			b.OpImm(isa.OpADDQ, isa.R(2), isa.R(2), 1)
		})
		b.Halt()
	})
	var site uint32
	branches := 0
	for i := range trace {
		d := &trace[i]
		if d.Inst.Op != isa.OpBNE {
			continue
		}
		branches++
		if site == 0 {
			site = d.Site
		} else if d.Site != site {
			t.Fatal("loop branch site changed between iterations")
		}
		wantTaken := branches < 5
		if d.Eff.Taken != wantTaken {
			t.Fatalf("iteration %d: taken=%v, want %v", branches, d.Eff.Taken, wantTaken)
		}
	}
	if branches != 5 {
		t.Fatalf("expected 5 loop branches, got %d", branches)
	}
	if m.R[2] != 5 {
		t.Fatalf("loop body ran %d times", m.R[2])
	}
}

func TestStreamingTraceMatchesCollect(t *testing.T) {
	k := daxpyKernel(1<<20, 2<<20, 512, 2.0)
	collected := Collect(newM(), k)

	tr := NewTrace(newM(), k)
	defer tr.Close()
	var streamed []DynInst
	for d := tr.Next(); d != nil; d = tr.Next() {
		streamed = append(streamed, *d)
	}
	if len(streamed) != len(collected) {
		t.Fatalf("streamed %d, collected %d", len(streamed), len(collected))
	}
	for i := range streamed {
		if streamed[i].Inst.Op != collected[i].Inst.Op || streamed[i].Seq != collected[i].Seq {
			t.Fatalf("divergence at %d: %v vs %v", i, streamed[i].Inst, collected[i].Inst)
		}
	}
	if tr.Consumed() != uint64(len(collected)) {
		t.Fatalf("Consumed = %d", tr.Consumed())
	}
}

func TestTraceEarlyClose(t *testing.T) {
	// A consumer abandoning a long trace must not leak the producer.
	tr := NewTrace(newM(), func(b *Builder) {
		for i := 0; i < 1_000_000; i++ {
			b.OpImm(isa.OpADDQ, isa.R(1), isa.R(1), 1)
		}
	})
	for i := 0; i < 10; i++ {
		if tr.Next() == nil {
			t.Fatal("trace ended prematurely")
		}
	}
	tr.Close() // must not hang
}

// TestCutReleasesAStalledTrace: a consumer blocked in Next on a producer
// that stopped calling the Builder is released by Cut from another
// goroutine, and Close then returns without waiting for the producer. Only
// a trace whose producer finished reports Drained.
func TestCutReleasesAStalledTrace(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	tr := NewTrace(newM(), func(b *Builder) {
		b.Li(isa.R(1), 1)
		<-release
	})
	cut := make(chan struct{})
	go func() {
		tr.Cut()
		close(cut)
	}()
	if d := tr.Next(); d != nil {
		t.Fatalf("Next on a stalled trace = %v, want nil once cut", d)
	}
	if tr.Drained() {
		t.Error("a cut trace reports Drained")
	}
	tr.Close() // must not wait for the stalled producer
	tr.Cut()   // a second cut is harmless
	<-cut

	done := NewTrace(newM(), func(b *Builder) {
		b.Li(isa.R(1), 1)
		b.Halt()
	})
	for done.Next() != nil {
	}
	if !done.Drained() {
		t.Error("a finished trace does not report Drained")
	}
	done.Close()
}

func TestAllocAlignmentAndPadding(t *testing.T) {
	b := NewBuilder(newM(), func() *DynInst { return new(DynInst) })
	a1 := b.Alloc(100, 64)
	if a1%64 != 0 {
		t.Fatalf("misaligned alloc %#x", a1)
	}
	a2 := b.Alloc(8, 4096)
	if a2%4096 != 0 {
		t.Fatalf("misaligned alloc %#x", a2)
	}
	if a2 < a1+100 {
		t.Fatal("allocations overlap")
	}
	f := b.AllocF64(10, 65856) // the paper's STREAMS padding
	g := b.AllocF64(10, 65856)
	if g-f < 10*8+65856 {
		t.Fatalf("padding not honoured: gap %d", g-f)
	}
}

func TestMaskedScatterSkipsInactive(t *testing.T) {
	m := newM()
	Collect(m, func(b *Builder) {
		// mask = element index even
		for i := 0; i < isa.VLMax; i++ {
			m.V[9][i] = uint64((i + 1) % 2)
			m.V[1][i] = uint64(i * 8)
			m.V[0][i] = 0x77
		}
		b.SetVM(isa.V(9))
		b.Li(isa.R(1), 1<<20)
		b.VScatM(isa.V(0), isa.V(1), isa.R(1))
		b.Halt()
	})
	for i := 0; i < isa.VLMax; i++ {
		got := m.Mem.LoadQ(1<<20 + uint64(i*8))
		if i%2 == 0 && got != 0x77 {
			t.Fatalf("active element %d not scattered", i)
		}
		if i%2 == 1 && got != 0 {
			t.Fatalf("inactive element %d scattered", i)
		}
	}
}

func f64bits(v float64) uint64 {
	return mathFloat64bits(v)
}

func f64from(b uint64) float64 {
	return mathFloat64from(b)
}

func TestLoopZeroIterations(t *testing.T) {
	m := newM()
	trace := Collect(m, func(b *Builder) {
		b.Loop(isa.R(1), 0, func(int) { t.Fatal("body must not run") })
		b.Halt()
	})
	if len(trace) != 1 {
		t.Fatalf("zero-iteration loop emitted %d instructions", len(trace))
	}
}

func TestFMAHelpers(t *testing.T) {
	m := newM()
	Collect(m, func(b *Builder) {
		for i := 0; i < isa.VLMax; i++ {
			m.WriteVF(0, i, 2.0)
			m.WriteVF(1, i, 3.0)
			m.WriteVF(2, i, 10.0)
		}
		m.WriteF(1, 4.0)
		b.VFMA(isa.V(2), isa.V(0), isa.V(1))  // 10 + 2*3 = 16
		b.VSFMA(isa.V(2), isa.V(0), isa.F(1)) // 16 + 2*4 = 24
		b.Halt()
	})
	if got := m.ReadVF(2, 7); got != 24.0 {
		t.Fatalf("fma chain = %v, want 24", got)
	}
}

func TestBuilderCount(t *testing.T) {
	var b *Builder
	Collect(newM(), func(bb *Builder) {
		b = bb
		bb.Li(isa.R(1), 1)
		bb.Li(isa.R(2), 2)
		bb.Halt()
	})
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
}

// drainFreeBatches empties the shared batch free list, so a test sees only
// the batches its own traces return.
func drainFreeBatches() {
	for {
		select {
		case <-freeBatches:
		default:
			return
		}
	}
}

// streamBatches runs a trace of k to the end and returns the backing array
// of every batch it delivered, in order.
func streamBatches(t *testing.T, k Kernel) []*DynInst {
	t.Helper()
	tr := NewTrace(newM(), k)
	var seen []*DynInst
	for d := tr.Next(); d != nil; d = tr.Next() {
		if first := &tr.cur[0]; len(seen) == 0 || seen[len(seen)-1] != first {
			seen = append(seen, first)
		}
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	return seen
}

// TestTraceBatchesGrowAndAreReused: a trace's batches start at firstBatch
// records and double up to batchSize; a finished trace returns them to the
// free list with no address slices left in their records, and the next
// trace fills the same batches instead of allocating its own.
func TestTraceBatchesGrowAndAreReused(t *testing.T) {
	drainFreeBatches()
	k := daxpyKernel(1<<20, 2<<20, 512*isa.VLMax, 2.0)
	tr := NewTrace(newM(), k)
	var sizes []int
	for d := tr.Next(); d != nil; d = tr.Next() {
		if tr.pos == 1 {
			sizes = append(sizes, len(tr.cur))
		}
	}
	tr.Close()
	want := []int{64, 128, 256, 512, 1024, 1024}
	if len(sizes) < len(want) {
		t.Fatalf("batch sizes %v, want at least %v", sizes, want)
	}
	for i, w := range want {
		if sizes[i] != w {
			t.Fatalf("batch sizes %v, want them to start %v", sizes, want)
		}
	}
	for b := range len(freeBatches) {
		batch := <-freeBatches
		for i := range batch[:cap(batch)] {
			if d := &batch[:cap(batch)][i]; d.Eff.Addrs != nil || d.Eff.ElemIdx != nil {
				t.Fatalf("free batch %d record %d still holds an address slice", b, i)
			}
		}
		freeBatches <- batch
	}

	// The second trace's producer takes its first batch from the free list
	// the first trace filled. Later batches come from there too while the
	// list has some; how many the two traces hold at once depends on
	// scheduling, so only the first is certain.
	drainFreeBatches()
	first := streamBatches(t, k)
	second := streamBatches(t, k)
	returned := map[*DynInst]bool{}
	for _, b := range first {
		returned[b] = true
	}
	if !returned[second[0]] {
		t.Fatal("the second trace allocated its first batch instead of reusing one the first trace returned")
	}
}

// TestConcurrentTracesShareTheFreeList: traces running at once, as serve
// workers, parallel sweeps and SMT threads do, take batches from and return
// them to the one free list, and each still delivers its own kernel's
// instructions intact. Run under -race in CI.
func TestConcurrentTracesShareTheFreeList(t *testing.T) {
	const traces = 4
	var wg sync.WaitGroup
	errs := make(chan error, traces)
	for g := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := (4 + g) * isa.VLMax
			k := daxpyKernel(1<<20, 2<<20, n, float64(g))
			want := Collect(newM(), k)
			for round := 0; round < 3; round++ {
				tr := NewTrace(newM(), k)
				i := 0
				for d := tr.Next(); d != nil; d = tr.Next() {
					w := &want[i]
					if d.Seq != w.Seq || d.Inst != w.Inst || len(d.Eff.Addrs) != len(w.Eff.Addrs) ||
						(len(d.Eff.Addrs) > 0 && d.Eff.Addrs[0] != w.Eff.Addrs[0]) {
						errs <- fmt.Errorf("trace %d round %d: record %d differs from Collect's", g, round, i)
						tr.Close()
						return
					}
					i++
				}
				tr.Close()
				if i != len(want) {
					errs <- fmt.Errorf("trace %d round %d: %d records, want %d", g, round, i, len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
