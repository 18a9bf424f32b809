package sim

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vasm"
)

// vecDaxpy hand-codes y += a*x (vector form) over n float64s.
func vecDaxpy(n int) vasm.Kernel {
	return func(b *vasm.Builder) {
		x := b.AllocF64(n, 0)
		y := b.AllocF64(n, 0)
		for i := 0; i < n; i++ {
			b.M.Mem.StoreQ(x+uint64(i)*8, f64(2.0))
			b.M.Mem.StoreQ(y+uint64(i)*8, f64(1.0))
		}
		rx, ry, rn, rs := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
		fa := isa.F(1)
		b.M.WriteF(1, 3.0)
		b.Li(rx, int64(x))
		b.Li(ry, int64(y))
		b.SetVSImm(rs, 8)
		b.Loop(rn, n/isa.VLMax, func(int) {
			b.VLdQ(isa.V(0), rx, 0)
			b.VLdQ(isa.V(1), ry, 0)
			b.VS(isa.OpVSMULT, isa.V(0), isa.V(0), fa)
			b.VV(isa.OpVADDT, isa.V(1), isa.V(1), isa.V(0))
			b.VStQ(isa.V(1), ry, 0)
			b.AddImm(rx, rx, isa.VLMax*8)
			b.AddImm(ry, ry, isa.VLMax*8)
		})
		b.Halt()
	}
}

// scalarDaxpy is the same computation in scalar Alpha code, 4x unrolled.
func scalarDaxpy(n int) vasm.Kernel {
	return func(b *vasm.Builder) {
		x := b.AllocF64(n, 0)
		y := b.AllocF64(n, 0)
		for i := 0; i < n; i++ {
			b.M.Mem.StoreQ(x+uint64(i)*8, f64(2.0))
			b.M.Mem.StoreQ(y+uint64(i)*8, f64(1.0))
		}
		rx, ry, rn := isa.R(1), isa.R(2), isa.R(3)
		fa := isa.F(1)
		b.M.WriteF(1, 3.0)
		b.Li(rx, int64(x))
		b.Li(ry, int64(y))
		b.Loop(rn, n/4, func(int) {
			for u := 0; u < 4; u++ {
				off := int64(u * 8)
				b.LdT(isa.F(2), rx, off)
				b.LdT(isa.F(3), ry, off)
				b.Op3(isa.OpMULT, isa.F(2), isa.F(2), fa)
				b.Op3(isa.OpADDT, isa.F(3), isa.F(3), isa.F(2))
				b.StT(isa.F(3), ry, off)
			}
			b.AddImm(rx, rx, 32)
			b.AddImm(ry, ry, 32)
		})
		b.Halt()
	}
}

func f64(v float64) uint64 {
	return mathBits(v)
}

func TestDaxpyOnTarantula(t *testing.T) {
	const n = 16 * 1024
	out := execute(t, RunSpec{Config: T(), Kernel: vecDaxpy(n)})
	st, m := out.Stats, out.Machine
	if st.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	// Functional result must be correct.
	got := m.Mem.LoadQ(m.R[2] - 8) // last y element written
	if got != f64(1.0+3.0*2.0) {
		t.Fatalf("y[last] = %#x, want 7.0", got)
	}
	opc, fpc, mpc, _ := st.OPC()
	t.Logf("T daxpy: cycles=%d opc=%.2f fpc=%.2f mpc=%.2f", st.Cycles, opc, fpc, mpc)
	if opc < 4 {
		t.Fatalf("Tarantula daxpy OPC %.2f implausibly low", opc)
	}
	if st.VectorIns == 0 {
		t.Fatal("no vector instructions retired")
	}
}

func TestDaxpyOnEV8(t *testing.T) {
	const n = 16 * 1024
	st := runK(t, EV8(), scalarDaxpy(n))
	if st.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	opc, fpc, _, _ := st.OPC()
	t.Logf("EV8 daxpy: cycles=%d opc=%.2f fpc=%.2f mispred=%d l1hit=%d l1miss=%d",
		st.Cycles, opc, fpc, st.BranchMispredicts, st.L1Hits, st.L1Misses)
	if st.VectorIns != 0 {
		t.Fatal("scalar kernel must not retire vector instructions")
	}
	if opc <= 0.5 {
		t.Fatalf("EV8 daxpy OPC %.2f implausibly low", opc)
	}
}

func TestTarantulaBeatsEV8OnDaxpy(t *testing.T) {
	const n = 16 * 1024
	stT := runK(t, T(), vecDaxpy(n))
	stE := runK(t, EV8(), scalarDaxpy(n))
	speedup := float64(stE.Cycles) / float64(stT.Cycles)
	t.Logf("daxpy speedup T/EV8 = %.2fx (EV8 %d cy, T %d cy)", speedup, stE.Cycles, stT.Cycles)
	if speedup < 2 {
		t.Fatalf("expected a clear vector win on daxpy, got %.2fx", speedup)
	}
}
