// Simultaneous multithreading on the vector machine: §3.3's design
// constraint ("to avoid excessive burden onto the operating system, the
// Vbox was also multithreaded") exercised. One flop-bound thread (dgemm
// inner product style) shares the chip with a latency-bound gather thread —
// the combination the SMT literature [18,19] shows profits most.
//
//	go run ./examples/smt
package main

import (
	"fmt"
	"log"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vasm"
)

// flopThread: long dependent-free chains of vector FP work.
func flopThread(b *vasm.Builder) {
	b.Loop(isa.R(16), 400, func(int) {
		for r := 0; r < 4; r++ {
			b.VV(isa.OpVMULT, isa.V(r), isa.V(8+r), isa.V(12+r))
			b.VV(isa.OpVADDT, isa.V(4+r), isa.V(4+r), isa.V(r))
		}
	})
	b.Halt()
}

// gatherThread: pointer-chasing gathers, mostly waiting on the L2.
func gatherThread(b *vasm.Builder) {
	base := uint64(1 << 20)
	rng := uint64(12345)
	for i := 0; i < isa.VLMax; i++ {
		rng = rng*6364136223846793005 + 1
		b.M.V[1][i] = (rng >> 16) % (1 << 18) &^ 7
		b.M.Mem.StoreQ(base+b.M.V[1][i], rng)
	}
	b.Li(isa.R(1), int64(base))
	b.Loop(isa.R(16), 400, func(int) {
		b.VGath(isa.V(2), isa.V(1), isa.R(1))
		b.VV(isa.OpVXOR, isa.V(1), isa.V(1), isa.V(2)) // serialise: next indices depend on data
		b.VS(isa.OpVSAND, isa.V(1), isa.V(1), isa.R(2))
	})
	b.Halt()
}

func main() {
	run := func(spec sim.RunSpec) *sim.Outcome {
		spec.Config = sim.T()
		out, err := sim.Execute(spec)
		if err != nil {
			log.Fatal(err)
		}
		return out
	}
	flop := func(b *vasm.Builder) { b.Li(isa.R(2), (1<<18)-8); flopThread(b) }
	gather := func(b *vasm.Builder) { b.Li(isa.R(2), (1<<18)-8); gatherThread(b) }

	s1 := run(sim.RunSpec{Kernel: flop}).Stats
	s2 := run(sim.RunSpec{Kernel: gather}).Stats
	smt := run(sim.RunSpec{Kernels: []vasm.Kernel{flop, gather}}).Stats

	serial := s1.Cycles + s2.Cycles
	fmt.Printf("flop thread alone:    %8d cycles\n", s1.Cycles)
	fmt.Printf("gather thread alone:  %8d cycles\n", s2.Cycles)
	fmt.Printf("both, serially:       %8d cycles\n", serial)
	fmt.Printf("both, SMT:            %8d cycles\n", smt.Cycles)
	fmt.Printf("throughput gain:      %.2fx\n", float64(serial)/float64(smt.Cycles))
	fmt.Println("\nThe gather thread's L2 round trips leave issue ports idle that the")
	fmt.Println("flop thread fills — the reason the Vbox carries per-thread rename")
	fmt.Println("state (and a much larger register file) rather than being single-")
	fmt.Println("threaded (§3.3).")
}
