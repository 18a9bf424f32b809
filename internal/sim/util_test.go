package sim

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vasm"
)

func mathBits(v float64) uint64 { return math.Float64bits(v) }

// execute runs spec and fails the test if the run does not complete.
func execute(t testing.TB, spec RunSpec) *Outcome {
	t.Helper()
	out, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runK runs a kernel on cfg and returns the chip stats.
func runK(t testing.TB, cfg *Config, k vasm.Kernel) *stats.Stats {
	t.Helper()
	return execute(t, RunSpec{Config: cfg, Kernel: k}).Stats
}

// runOnChip runs kernel on a chip built from cfg and returns the chip, for
// tests that read it afterwards, with the run's error.
func runOnChip(cfg *Config, kernel vasm.Kernel) (*Chip, error) {
	out, err := Execute(RunSpec{Config: cfg, Kernel: kernel})
	return out.Chip, err
}

// kernelCase pairs a kernel with the configurations able to run it (vector
// kernels need a Vbox).
type kernelCase struct {
	name    string
	kernel  vasm.Kernel
	configs []*Config
}

// kernelCases cover every kind of wait the chip loop sees: vector port
// occupancy, Vbox dispatch backpressure, the L1/MSHR scalar load path,
// write-buffer drains (DRAINM), branches, and the memory controller's
// queuing, plus a mixed scalar-FP and vector-scalar kernel.
func kernelCases() []kernelCase {
	return []kernelCase{
		{"vector-arith", func(b *vasm.Builder) {
			for i := 0; i < 64; i++ {
				b.VV(isa.OpVADDQ, isa.V(i%8), isa.V(8+i%8), isa.V(16+i%8))
			}
			b.Halt()
		}, []*Config{T()}},
		{"mixed-scalar-vector", func(b *vasm.Builder) {
			base := b.AllocF64(4096, 0)
			b.Li(isa.R(1), int64(base))
			b.SetVLImm(isa.R(9), 64)
			b.Loop(isa.R(2), 16, func(iter int) {
				b.LdT(isa.F(1), isa.R(1), int64(iter*8))
				b.Op3(isa.OpADDT, isa.F(2), isa.F(1), isa.F(1))
				b.Op3(isa.OpMULT, isa.F(3), isa.F(2), isa.F(1))
				b.VLdQ(isa.V(1), isa.R(1), int64(iter*512))
				b.VS(isa.OpVSMULT, isa.V(2), isa.V(1), isa.F(3))
				b.VV(isa.OpVADDT, isa.V(3), isa.V(2), isa.V(1))
				b.VStQ(isa.V(3), isa.R(1), int64(iter*512))
				b.StT(isa.F(3), isa.R(1), int64(iter*8))
			})
			b.DrainM()
			b.Halt()
		}, []*Config{T()}},
		{"vector-memory-bound", func(b *vasm.Builder) {
			// Strided traffic well past the L2: long Zbox waits.
			base := b.AllocF64(1<<17, 0)
			b.Li(isa.R(1), int64(base))
			b.SetVLImm(isa.R(9), 128)
			b.SetVSImm(isa.R(10), 1024)
			b.Loop(isa.R(2), 8, func(iter int) {
				b.VLdQ(isa.V(1), isa.R(1), int64(iter*8))
				b.VV(isa.OpVADDT, isa.V(2), isa.V(1), isa.V(1))
				b.VStQ(isa.V(2), isa.R(1), int64(iter*8))
			})
			b.Halt()
		}, []*Config{T()}},
		{"scalar-loads-and-stores", func(b *vasm.Builder) {
			base := b.AllocF64(1<<15, 0)
			b.Li(isa.R(1), int64(base))
			b.Loop(isa.R(2), 64, func(iter int) {
				b.LdT(isa.F(1), isa.R(1), int64(iter*512))
				b.Op3(isa.OpADDT, isa.F(2), isa.F(1), isa.F(1))
				b.StT(isa.F(2), isa.R(1), int64(iter*512+8))
			})
			b.DrainM()
			b.Halt()
		}, []*Config{T(), EV8()}},
	}
}
