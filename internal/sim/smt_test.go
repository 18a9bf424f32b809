package sim

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vasm"
)

// smtKernel is a small vector workload (daxpy over n elements) used to
// exercise multithreaded execution.
func smtKernel(n int, a float64) vasm.Kernel {
	return func(b *vasm.Builder) {
		x := b.AllocF64(n, 0)
		y := b.AllocF64(n, 0)
		for i := 0; i < n; i++ {
			b.M.Mem.StoreQ(x+uint64(i)*8, mathBits(float64(i)))
			b.M.Mem.StoreQ(y+uint64(i)*8, mathBits(1.0))
		}
		b.M.WriteF(1, a)
		b.Li(isa.R(1), int64(x))
		b.Li(isa.R(2), int64(y))
		b.SetVSImm(isa.R(9), 8)
		b.Loop(isa.R(16), n/isa.VLMax, func(int) {
			b.VLdQ(isa.V(0), isa.R(1), 0)
			b.VLdQ(isa.V(1), isa.R(2), 0)
			b.VS(isa.OpVSMULT, isa.V(0), isa.V(0), isa.F(1))
			b.VV(isa.OpVADDT, isa.V(1), isa.V(1), isa.V(0))
			b.VStQ(isa.V(1), isa.R(2), 0)
			b.AddImm(isa.R(1), isa.R(1), isa.VLMax*8)
			b.AddImm(isa.R(2), isa.R(2), isa.VLMax*8)
		})
		b.Halt()
	}
}

func TestSMTBothThreadsCorrect(t *testing.T) {
	const n = 4096
	out := execute(t, RunSpec{Config: T(), Kernels: []vasm.Kernel{smtKernel(n, 2.0), smtKernel(n, 5.0)}})
	st, machines := out.Stats, out.Machines
	if len(machines) != 2 {
		t.Fatal("expected two machines")
	}
	for th, a := range []float64{2.0, 5.0} {
		m := machines[th]
		yBase := uint64(1<<20) + n*8
		for i := 0; i < n; i += 311 {
			got := m.Mem.LoadQ(yBase + uint64(i)*8)
			want := mathBits(1.0 + a*float64(i))
			if got != want {
				t.Fatalf("thread %d: y[%d] = %#x, want %#x", th, i, got, want)
			}
		}
	}
	if st.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestSMTThroughputBeatsSerial(t *testing.T) {
	const n = 8192
	// Two threads sharing the chip vs the same two kernels back to back.
	stSMT := execute(t, RunSpec{Config: T(), Kernels: []vasm.Kernel{smtKernel(n, 2.0), smtKernel(n, 3.0)}}).Stats
	st1 := runK(t, T(), smtKernel(n, 2.0))
	st2 := runK(t, T(), smtKernel(n, 3.0))
	serial := st1.Cycles + st2.Cycles
	t.Logf("SMT %d cycles vs serial %d (gain %.2fx)",
		stSMT.Cycles, serial, float64(serial)/float64(stSMT.Cycles))
	if stSMT.Cycles >= serial {
		t.Fatalf("SMT (%d cy) should beat running the threads serially (%d cy)",
			stSMT.Cycles, serial)
	}
	// But not by more than 2x (only two threads).
	if float64(serial)/float64(stSMT.Cycles) > 2.05 {
		t.Fatalf("SMT gain over 2x is impossible with two threads")
	}
}

func TestSMTAddressSpacesIsolated(t *testing.T) {
	// Both threads write the same virtual addresses with different values;
	// isolation means both final images are correct (no cross-thread
	// clobbering through the shared cache model).
	k := func(val uint64) vasm.Kernel {
		return func(b *vasm.Builder) {
			b.Li(isa.R(1), 1<<20)
			b.Li(isa.R(2), int64(val))
			b.Loop(isa.R(16), 64, func(int) {
				b.StQ(isa.R(2), isa.R(1), 0)
				b.AddImm(isa.R(1), isa.R(1), 8)
			})
			b.Halt()
		}
	}
	machines := execute(t, RunSpec{Config: T(), Kernels: []vasm.Kernel{k(111), k(222)}}).Machines
	for th, want := range []uint64{111, 222} {
		for i := uint64(0); i < 64; i++ {
			if got := machines[th].Mem.LoadQ(1<<20 + i*8); got != want {
				t.Fatalf("thread %d slot %d = %d, want %d", th, i, got, want)
			}
		}
	}
}

func TestSMTFourThreads(t *testing.T) {
	// EV8 was a 4-thread SMT design; run four scalar threads, and three,
	// whose uneven share of the reorder buffer (85 of 256 entries) sits in
	// a 128-slot ring.
	k := func(b *vasm.Builder) {
		b.Loop(isa.R(16), 500, func(int) {
			b.OpImm(isa.OpADDQ, isa.R(1), isa.R(1), 1)
		})
		b.Halt()
	}
	for _, threads := range []int{4, 3} {
		kernels := make([]vasm.Kernel, threads)
		for i := range kernels {
			kernels[i] = k
		}
		out := execute(t, RunSpec{Config: EV8(), Kernels: kernels})
		st, machines := out.Stats, out.Machines
		if len(machines) != threads {
			t.Fatalf("%d threads: %d machines", threads, len(machines))
		}
		for th, m := range machines {
			if m.R[1] != 500 {
				t.Fatalf("%d threads: thread %d computed %d", threads, th, m.R[1])
			}
		}
		if st.ScalarIns == 0 {
			t.Fatalf("%d threads: no instructions retired", threads)
		}
	}
}

func TestSMTNeedsLargerRegisterFile(t *testing.T) {
	// §3.3: making the Vbox multithreaded "forced using a much larger
	// register file". With two threads sharing a small physical file,
	// rename stalls must show up where a large file runs free.
	const n = 8192
	kernels := []vasm.Kernel{smtKernel(n, 2.0), smtKernel(n, 3.0)}
	small := T()
	small.Vbox.PhysVRegs = 36 // 4 rename copies for two threads
	stSmall := execute(t, RunSpec{Config: small, Kernels: kernels}).Stats
	large := T()
	large.Vbox.PhysVRegs = 128
	stLarge := execute(t, RunSpec{Config: large, Kernels: kernels}).Stats
	t.Logf("SMT with 36 phys vregs: %d cy; with 128: %d cy", stSmall.Cycles, stLarge.Cycles)
	if stSmall.Cycles <= stLarge.Cycles {
		t.Fatal("a starved register file should slow multithreaded execution")
	}
}
