package arch

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/mem"
)

func newM() *Machine { return New(mem.New()) }

func TestScalarALU(t *testing.T) {
	m := newM()
	m.R[1] = 7
	m.R[2] = 5
	cases := []struct {
		op   isa.Op
		want uint64
	}{
		{isa.OpADDQ, 12},
		{isa.OpSUBQ, 2},
		{isa.OpMULQ, 35},
		{isa.OpAND, 5},
		{isa.OpBIS, 7},
		{isa.OpXOR, 2},
		{isa.OpCMPEQ, 0},
		{isa.OpCMPLT, 0},
		{isa.OpCMPLE, 0},
	}
	for _, c := range cases {
		step(m, &isa.Inst{Op: c.op, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)})
		if m.R[3] != c.want {
			t.Errorf("%s: got %d, want %d", c.op, m.R[3], c.want)
		}
	}
}

func TestS8ADDQ(t *testing.T) {
	m := newM()
	m.R[1] = 3
	m.R[2] = 100
	step(m, &isa.Inst{Op: isa.OpS8ADDQ, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)})
	if m.R[3] != 124 {
		t.Fatalf("s8addq = %d, want 124", m.R[3])
	}
}

func TestR31ReadsZeroAndIgnoresWrites(t *testing.T) {
	m := newM()
	step(m, &isa.Inst{Op: isa.OpLDA, Dst: isa.RZero, Src1: isa.RZero, Imm: 42})
	step(m, &isa.Inst{Op: isa.OpADDQ, Dst: isa.R(1), Src1: isa.RZero, Src2: isa.RZero})
	if m.R[1] != 0 {
		t.Fatalf("r31 leaked a value: %d", m.R[1])
	}
}

func TestScalarFP(t *testing.T) {
	m := newM()
	m.WriteF(1, 6.0)
	m.WriteF(2, 1.5)
	step(m, &isa.Inst{Op: isa.OpDIVT, Dst: isa.F(3), Src1: isa.F(1), Src2: isa.F(2)})
	if got := m.ReadF(3); got != 4.0 {
		t.Fatalf("divt = %v", got)
	}
	step(m, &isa.Inst{Op: isa.OpSQRTT, Dst: isa.F(4), Src1: isa.F(3)})
	if got := m.ReadF(4); got != 2.0 {
		t.Fatalf("sqrtt = %v", got)
	}
	m.R[5] = 9
	step(m, &isa.Inst{Op: isa.OpCVTQT, Dst: isa.F(6), Src1: isa.R(5)})
	if got := m.ReadF(6); got != 9.0 {
		t.Fatalf("cvtqt = %v", got)
	}
}

func TestScalarMemory(t *testing.T) {
	m := newM()
	m.R[1] = 0x1000
	m.R[2] = 0x5a5a
	eff := step(m, &isa.Inst{Op: isa.OpSTQ, Src1: isa.R(2), Src2: isa.R(1), Imm: 8})
	if len(eff.Addrs) != 1 || eff.Addrs[0] != 0x1008 {
		t.Fatalf("store effect addrs = %v", eff.Addrs)
	}
	step(m, &isa.Inst{Op: isa.OpLDQ, Dst: isa.R(3), Src2: isa.R(1), Imm: 8})
	if m.R[3] != 0x5a5a {
		t.Fatalf("load = %#x", m.R[3])
	}
}

func TestBranchEffects(t *testing.T) {
	m := newM()
	m.R[1] = 0
	if !step(m, &isa.Inst{Op: isa.OpBEQ, Src1: isa.R(1)}).Taken {
		t.Error("beq on zero should be taken")
	}
	if step(m, &isa.Inst{Op: isa.OpBNE, Src1: isa.R(1)}).Taken {
		t.Error("bne on zero should not be taken")
	}
	m.R[1] = ^uint64(0) // -1
	if !step(m, &isa.Inst{Op: isa.OpBLT, Src1: isa.R(1)}).Taken {
		t.Error("blt on -1 should be taken")
	}
}

func TestVectorAddAndVL(t *testing.T) {
	m := newM()
	for i := 0; i < isa.VLMax; i++ {
		m.V[0][i] = uint64(i)
		m.V[1][i] = uint64(100 + i)
		m.V[2][i] = 0xfeed
	}
	m.R[9] = 10
	step(m, &isa.Inst{Op: isa.OpSETVL, Src1: isa.R(9)})
	eff := step(m, &isa.Inst{Op: isa.OpVADDQ, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)})
	if eff.VL != 10 || eff.Active != 10 {
		t.Fatalf("eff = %+v", eff)
	}
	for i := 0; i < 10; i++ {
		if m.V[2][i] != uint64(100+2*i) {
			t.Fatalf("v2[%d] = %d", i, m.V[2][i])
		}
	}
	// Elements beyond vl left unchanged (a legal UNPREDICTABLE behaviour).
	if m.V[2][10] != 0xfeed {
		t.Fatalf("v2[10] clobbered beyond vl")
	}
}

func TestSetVLClamps(t *testing.T) {
	m := newM()
	m.R[1] = 500
	step(m, &isa.Inst{Op: isa.OpSETVL, Src1: isa.R(1)})
	if m.VL != isa.VLMax {
		t.Fatalf("vl = %d, want clamp to %d", m.VL, isa.VLMax)
	}
}

func TestVectorScalarOperate(t *testing.T) {
	m := newM()
	for i := 0; i < isa.VLMax; i++ {
		m.WriteVF(0, i, float64(i))
	}
	m.WriteF(7, 2.5)
	step(m, &isa.Inst{Op: isa.OpVSMULT, Dst: isa.V(1), Src1: isa.V(0), Src2: isa.F(7)})
	for i := 0; i < isa.VLMax; i++ {
		if got := m.ReadVF(1, i); got != float64(i)*2.5 {
			t.Fatalf("v1[%d] = %v", i, got)
		}
	}
}

func TestMaskPipelineFromPaper(t *testing.T) {
	// The paper's §2 example: A(i).ne.0 .and. B(i).gt.2 via vcmpne/vcmpgt
	// (we use cmplt with swapped operands for gt) then vand, setvm.
	m := newM()
	for i := 0; i < isa.VLMax; i++ {
		m.V[0][i] = uint64(i % 2)     // A: odd elements non-zero
		m.WriteVF(1, i, float64(i%4)) // B: .gt.2 for i%4 == 3
	}
	// v6 = A != 0
	step(m, &isa.Inst{Op: isa.OpVCMPNE, Dst: isa.V(6), Src1: isa.V(0), Src2: isa.VZero})
	// v7 = B > 2, computed as !(B <= 2): vscmptle then xor with 1.
	m.WriteF(2, 2.0)
	m.R[10] = 1
	step(m, &isa.Inst{Op: isa.OpVSCMPTLE, Dst: isa.V(7), Src1: isa.V(1), Src2: isa.F(2)})
	step(m, &isa.Inst{Op: isa.OpVSXOR, Dst: isa.V(7), Src1: isa.V(7), Src2: isa.R(10)})
	step(m, &isa.Inst{Op: isa.OpVAND, Dst: isa.V(8), Src1: isa.V(6), Src2: isa.V(7)})
	step(m, &isa.Inst{Op: isa.OpSETVM, Src1: isa.V(8)})
	for i := 0; i < isa.VLMax; i++ {
		want := (i%2 != 0) && (float64(i%4) > 2.0)
		if m.VM[i] != want {
			t.Fatalf("vm[%d] = %v, want %v", i, m.VM[i], want)
		}
	}
	// Masked add only touches masked-in elements.
	for i := 0; i < isa.VLMax; i++ {
		m.V[3][i] = 0
		m.V[4][i] = 7
		m.V[5][i] = 0xbeef
	}
	eff := step(m, &isa.Inst{Op: isa.OpVADDQ, Dst: isa.V(5), Src1: isa.V(3), Src2: isa.V(4), Masked: true})
	want := 0
	for i := 0; i < isa.VLMax; i++ {
		if m.VM[i] {
			want++
			if m.V[5][i] != 7 {
				t.Fatalf("masked-in element %d not written", i)
			}
		} else if m.V[5][i] != 0xbeef {
			t.Fatalf("masked-out element %d written", i)
		}
	}
	if eff.Active != want {
		t.Fatalf("Active = %d, want %d", eff.Active, want)
	}
}

func TestStridedLoadStore(t *testing.T) {
	m := newM()
	base := uint64(0x10000)
	for i := 0; i < 256; i++ {
		m.Mem.StoreQ(base+uint64(i)*8, uint64(i)*3)
	}
	m.R[1] = base
	m.R[2] = 16 // stride 2 quadwords
	step(m, &isa.Inst{Op: isa.OpSETVS, Src1: isa.R(2)})
	eff := step(m, &isa.Inst{Op: isa.OpVLDQ, Dst: isa.V(0), Src2: isa.R(1)})
	if eff.Stride != 16 || len(eff.Addrs) != isa.VLMax {
		t.Fatalf("effect = %+v", eff)
	}
	for i := 0; i < isa.VLMax; i++ {
		if m.V[0][i] != uint64(2*i)*3 {
			t.Fatalf("v0[%d] = %d", i, m.V[0][i])
		}
		if eff.Addrs[i] != base+uint64(i)*16 {
			t.Fatalf("addr[%d] = %#x", i, eff.Addrs[i])
		}
	}
	// Store it back densely elsewhere.
	m.R[3] = 0x40000
	m.R[4] = 8
	step(m, &isa.Inst{Op: isa.OpSETVS, Src1: isa.R(4)})
	step(m, &isa.Inst{Op: isa.OpVSTQ, Src1: isa.V(0), Src2: isa.R(3)})
	for i := 0; i < isa.VLMax; i++ {
		if got := m.Mem.LoadQ(0x40000 + uint64(i)*8); got != uint64(2*i)*3 {
			t.Fatalf("stored[%d] = %d", i, got)
		}
	}
}

func TestGatherScatter(t *testing.T) {
	m := newM()
	base := uint64(0x20000)
	for i := 0; i < 1024; i++ {
		m.Mem.StoreQ(base+uint64(i)*8, uint64(i)+1000)
	}
	// Index vector: reversed byte offsets.
	for i := 0; i < isa.VLMax; i++ {
		m.V[1][i] = uint64((isa.VLMax - 1 - i) * 8)
	}
	m.R[1] = base
	step(m, &isa.Inst{Op: isa.OpVGATHQ, Dst: isa.V(2), Idx: isa.V(1), Src2: isa.R(1)})
	for i := 0; i < isa.VLMax; i++ {
		if m.V[2][i] != uint64(isa.VLMax-1-i)+1000 {
			t.Fatalf("gather[%d] = %d", i, m.V[2][i])
		}
	}
	// Scatter increments back to distinct slots.
	m.R[2] = 0x80000
	step(m, &isa.Inst{Op: isa.OpVSCATQ, Src1: isa.V(2), Idx: isa.V(1), Src2: isa.R(2)})
	for i := 0; i < isa.VLMax; i++ {
		off := uint64((isa.VLMax - 1 - i) * 8)
		if got := m.Mem.LoadQ(0x80000 + off); got != uint64(isa.VLMax-1-i)+1000 {
			t.Fatalf("scatter slot %d = %d", i, got)
		}
	}
}

func TestPrefetchToV31HasNoEffect(t *testing.T) {
	m := newM()
	m.R[1] = 0x30000
	m.V[31][0] = 0 // v31 is hardwired anyway
	eff := step(m, &isa.Inst{Op: isa.OpVLDQ, Dst: isa.VZero, Src2: isa.R(1)})
	if len(eff.Addrs) != isa.VLMax {
		t.Fatal("prefetch should still generate addresses")
	}
	// Reading v31 in an add still yields zeros.
	step(m, &isa.Inst{Op: isa.OpVADDQ, Dst: isa.V(0), Src1: isa.VZero, Src2: isa.VZero})
	for i := 0; i < isa.VLMax; i++ {
		if m.V[0][i] != 0 {
			t.Fatal("v31 should read as zero")
		}
	}
}

func TestVExtrVIns(t *testing.T) {
	m := newM()
	m.V[4][17] = 0xabc
	m.R[2] = 17
	step(m, &isa.Inst{Op: isa.OpVEXTR, Dst: isa.R(3), Src1: isa.V(4), Src2: isa.R(2)})
	if m.R[3] != 0xabc {
		t.Fatalf("vextr = %#x", m.R[3])
	}
	m.R[4] = 0x123
	step(m, &isa.Inst{Op: isa.OpVINS, Dst: isa.V(5), Src1: isa.R(4), Src2: isa.R(2)})
	if m.V[5][17] != 0x123 {
		t.Fatalf("vins = %#x", m.V[5][17])
	}
}

func TestVMerge(t *testing.T) {
	m := newM()
	for i := 0; i < isa.VLMax; i++ {
		m.V[0][i] = 1
		m.V[1][i] = 2
		m.VM[i] = i%3 == 0
	}
	step(m, &isa.Inst{Op: isa.OpVMERG, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)})
	for i := 0; i < isa.VLMax; i++ {
		want := uint64(2)
		if i%3 == 0 {
			want = 1
		}
		if m.V[2][i] != want {
			t.Fatalf("vmerg[%d] = %d, want %d", i, m.V[2][i], want)
		}
	}
}

func TestVectorAddCommutes(t *testing.T) {
	f := func(a, b [8]uint64) bool {
		m := newM()
		for i := 0; i < 8; i++ {
			m.V[0][i] = a[i]
			m.V[1][i] = b[i]
		}
		m.R[1] = 8
		step(m, &isa.Inst{Op: isa.OpSETVL, Src1: isa.R(1)})
		step(m, &isa.Inst{Op: isa.OpVADDQ, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)})
		step(m, &isa.Inst{Op: isa.OpVADDQ, Dst: isa.V(3), Src1: isa.V(1), Src2: isa.V(0)})
		for i := 0; i < 8; i++ {
			if m.V[2][i] != m.V[3][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterRoundTripProperty(t *testing.T) {
	// Scatter then gather with the same indices must reproduce the data
	// when indices are distinct.
	f := func(seed uint64, data [16]uint64) bool {
		m := newM()
		m.R[9] = 16
		step(m, &isa.Inst{Op: isa.OpSETVL, Src1: isa.R(9)})
		// Build 16 distinct offsets by hashing slot i.
		used := map[uint64]bool{}
		for i := 0; i < 16; i++ {
			off := ((seed*2654435761 + uint64(i)*40503) % 4096) &^ 7
			for used[off] {
				off = (off + 8) % 4096
			}
			used[off] = true
			m.V[1][i] = off
			m.V[0][i] = data[i]
		}
		m.R[1] = 0x100000
		step(m, &isa.Inst{Op: isa.OpVSCATQ, Src1: isa.V(0), Idx: isa.V(1), Src2: isa.R(1)})
		step(m, &isa.Inst{Op: isa.OpVGATHQ, Dst: isa.V(2), Idx: isa.V(1), Src2: isa.R(1)})
		for i := 0; i < 16; i++ {
			if m.V[2][i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunnerLoop(t *testing.T) {
	// Sum 1..10 with a real branch loop through the Runner.
	p := archProgram()
	m := newM()
	n, err := m.Run(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.R[3] != 55 {
		t.Fatalf("sum = %d, want 55", m.R[3])
	}
	if n == 0 {
		t.Fatal("no instructions executed")
	}
}

func archProgram() Program {
	// r1 = counter (10..1), r3 = accumulator
	return Program{
		{Op: isa.OpLDA, Dst: isa.R(1), Src1: isa.RZero, Imm: 10},
		{Op: isa.OpLDA, Dst: isa.R(3), Src1: isa.RZero, Imm: 0},
		// loop:
		{Op: isa.OpADDQ, Dst: isa.R(3), Src1: isa.R(3), Src2: isa.R(1)},
		{Op: isa.OpLDA, Dst: isa.R(1), Src1: isa.R(1), Imm: -1},
		{Op: isa.OpBNE, Src1: isa.R(1), Imm: 2},
		{Op: isa.OpHALT},
	}
}

func TestRunnerRunaway(t *testing.T) {
	p := Program{{Op: isa.OpBR, Imm: 0}}
	m := newM()
	if _, err := m.Run(p, 100); err == nil {
		t.Fatal("expected step-limit error for infinite loop")
	}
}

func TestCVTTQTruncates(t *testing.T) {
	m := newM()
	m.WriteF(1, 3.99)
	step(m, &isa.Inst{Op: isa.OpCVTTQ, Dst: isa.R(2), Src1: isa.F(1)})
	if m.R[2] != 3 {
		t.Fatalf("cvttq(3.99) = %d", m.R[2])
	}
	m.WriteF(1, -3.99)
	step(m, &isa.Inst{Op: isa.OpCVTTQ, Dst: isa.R(2), Src1: isa.F(1)})
	if int64(m.R[2]) != -3 {
		t.Fatalf("cvttq(-3.99) = %d", int64(m.R[2]))
	}
}

func TestVMaxMinT(t *testing.T) {
	m := newM()
	m.WriteVF(0, 0, 1.5)
	m.WriteVF(1, 0, -2.5)
	step(m, &isa.Inst{Op: isa.OpVMAXT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)})
	step(m, &isa.Inst{Op: isa.OpVMINT, Dst: isa.V(3), Src1: isa.V(0), Src2: isa.V(1)})
	if m.ReadVF(2, 0) != 1.5 || m.ReadVF(3, 0) != -2.5 {
		t.Fatalf("max/min = %v/%v", m.ReadVF(2, 0), m.ReadVF(3, 0))
	}
}

func TestFPSpecials(t *testing.T) {
	m := newM()
	m.WriteF(1, 1.0)
	m.WriteF(2, 0.0)
	step(m, &isa.Inst{Op: isa.OpDIVT, Dst: isa.F(3), Src1: isa.F(1), Src2: isa.F(2)})
	if !math.IsInf(m.ReadF(3), 1) {
		t.Fatalf("1/0 = %v, want +Inf", m.ReadF(3))
	}
}
