// Quickstart: hand-assemble a DAXPY kernel in the Tarantula vector ISA, run
// it on the simulated chip, and print the performance counters.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vasm"
)

func main() {
	const n = 64 * 1024 // elements
	const a = 3.0

	// A kernel is a Go function that drives the macro-assembler. It runs
	// functionally while being recorded, so after simulation the memory
	// image holds the real results.
	kernel := func(b *vasm.Builder) {
		x := b.AllocF64(n, 0)
		y := b.AllocF64(n, 0)
		for i := 0; i < n; i++ { // host-side data initialisation (untimed)
			b.M.Mem.StoreQ(x+uint64(i)*8, f64bits(float64(i)))
			b.M.Mem.StoreQ(y+uint64(i)*8, f64bits(1.0))
		}

		rx, ry, rs := isa.R(1), isa.R(2), isa.R(9)
		fa := isa.F(1)
		b.M.WriteF(1, a)
		b.Li(rx, int64(x))
		b.Li(ry, int64(y))
		b.SetVSImm(rs, 8) // unit stride over quadwords

		b.Loop(isa.R(16), n/isa.VLMax, func(int) {
			b.VPref(rx, 8*isa.VLMax*8) // software prefetch ahead
			b.VLdQ(isa.V(0), rx, 0)    // x chunk
			b.VLdQ(isa.V(1), ry, 0)    // y chunk
			b.VS(isa.OpVSMULT, isa.V(0), isa.V(0), fa)
			b.VV(isa.OpVADDT, isa.V(1), isa.V(1), isa.V(0))
			b.VStQ(isa.V(1), ry, 0)
			b.AddImm(rx, rx, isa.VLMax*8)
			b.AddImm(ry, ry, isa.VLMax*8)
		})
		b.Halt()
	}

	cfg := sim.T() // the Tarantula configuration of Table 3
	out, err := sim.Execute(sim.RunSpec{Config: cfg, Kernel: kernel})
	if err != nil {
		log.Fatal(err)
	}
	st, m := out.Stats, out.Machine

	// The functional machine computed the actual values.
	yBase := uint64(1<<20) + uint64(n)*8 // second allocation
	_ = yBase
	got := f64from(m.Mem.LoadQ(m.R[2] - 8)) // last y element written
	fmt.Printf("y[n-1] = %.1f (want %.1f)\n", got, 1.0+a*float64(n-1))

	opc, fpc, mpc, other := st.OPC()
	fmt.Printf("cycles: %d\n", st.Cycles)
	fmt.Printf("sustained OPC: %.2f  (flops %.2f, memory %.2f, other %.2f)\n",
		opc, fpc, mpc, other)
	fmt.Printf("vector instructions retired: %d\n", st.VectorIns)
	fmt.Printf("L2 pump slices: %d (stride-1 double-bandwidth mode)\n", st.L2PumpSlices)
}

func f64bits(v float64) uint64 { return math.Float64bits(v) }
func f64from(b uint64) float64 { return math.Float64frombits(b) }
