package arch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// step runs in on m and returns its effect, for tests that only read it.
func step(m *Machine, in *isa.Inst) Effect {
	var eff Effect
	m.Step(in, &eff)
	return eff
}

// refStep is the element-at-a-time executor Step replaced, kept as the
// reference the per-instruction one is checked against: every vector
// instruction tests each element's mask bit and register class, and reads
// and writes memory one quadword at a time. Scalar instructions go to Step,
// whose scalar path is unchanged.
func refStep(m *Machine, in *isa.Inst) Effect {
	info := in.Info()
	switch info.Group {
	case isa.GVV:
		return refStepVV(m, in)
	case isa.GVS:
		return refStepVS(m, in)
	case isa.GSM:
		return refStepSM(m, in, info)
	case isa.GRM:
		return refStepRM(m, in, info)
	case isa.GVC:
		return refStepVC(m, in)
	}
	return step(m, in)
}

func refActive(m *Machine, in *isa.Inst, i int) bool {
	if uint64(i) >= m.VL {
		return false
	}
	return !in.Masked || m.VM[i]
}

func refRead(m *Machine, r isa.Reg, i int) uint64 {
	if r.Idx == 31 {
		return 0
	}
	return m.vreg(r)[i]
}

func refWrite(m *Machine, r isa.Reg, i int, v uint64) {
	if r.Idx == 31 {
		return
	}
	m.vreg(r)[i] = v
}

func refStepVV(m *Machine, in *isa.Inst) Effect {
	vl := int(m.VL)
	act := 0
	for i := 0; i < vl; i++ {
		if !refActive(m, in, i) {
			continue
		}
		act++
		a := refRead(m, in.Src1, i)
		var r uint64
		switch {
		case in.Op == isa.OpVSQRTT || in.Op == isa.OpVCVTQT || in.Op == isa.OpVCVTTQ:
			r = vvUnary(in.Op, a)
		case in.Op == isa.OpVMERG:
			if m.VM[i] {
				r = a
			} else {
				r = refRead(m, in.Src2, i)
			}
		case in.Op == isa.OpVFMAT:
			r = bits(f64(refRead(m, in.Dst, i)) + f64(a)*f64(refRead(m, in.Src2, i)))
		default:
			r = vvBinary(in.Op, a, refRead(m, in.Src2, i))
		}
		refWrite(m, in.Dst, i, r)
	}
	return Effect{VL: vl, Active: act}
}

func refStepVS(m *Machine, in *isa.Inst) Effect {
	vl := int(m.VL)
	s := m.rr(in.Src2)
	act := 0
	for i := 0; i < vl; i++ {
		if !refActive(m, in, i) {
			continue
		}
		act++
		if in.Op == isa.OpVSFMAT {
			refWrite(m, in.Dst, i, bits(f64(refRead(m, in.Dst, i))+f64(refRead(m, in.Src1, i))*f64(s)))
		} else {
			refWrite(m, in.Dst, i, vvBinary(in.Op, refRead(m, in.Src1, i), s))
		}
	}
	return Effect{VL: vl, Active: act}
}

func refStepSM(m *Machine, in *isa.Inst, info *isa.Info) Effect {
	vl := int(m.VL)
	base := m.rr(in.Src2) + uint64(in.Imm)
	var addrs []uint64
	var idxs []uint8
	for i := 0; i < vl; i++ {
		if !refActive(m, in, i) {
			continue
		}
		ea := base + uint64(int64(i)*m.VS)
		addrs = append(addrs, ea)
		idxs = append(idxs, uint8(i))
		if info.IsLoad {
			if in.Dst.Idx != 31 { // prefetch: no architectural effect
				refWrite(m, in.Dst, i, m.Mem.LoadQ(ea))
			}
		} else {
			m.Mem.StoreQ(ea, refRead(m, in.Src1, i))
		}
	}
	return Effect{VL: vl, Stride: m.VS, Base: base, Addrs: addrs, ElemIdx: idxs, Active: len(addrs)}
}

func refStepRM(m *Machine, in *isa.Inst, info *isa.Info) Effect {
	vl := int(m.VL)
	base := m.rr(in.Src2) + uint64(in.Imm)
	var addrs []uint64
	var idxs []uint8
	for i := 0; i < vl; i++ {
		if !refActive(m, in, i) {
			continue
		}
		ea := base + refRead(m, in.Idx, i)
		addrs = append(addrs, ea)
		idxs = append(idxs, uint8(i))
		if info.IsLoad {
			if in.Dst.Idx != 31 {
				refWrite(m, in.Dst, i, m.Mem.LoadQ(ea))
			}
		} else {
			m.Mem.StoreQ(ea, refRead(m, in.Src1, i))
		}
	}
	return Effect{VL: vl, Base: base, Addrs: addrs, ElemIdx: idxs, Active: len(addrs)}
}

func refStepVC(m *Machine, in *isa.Inst) Effect {
	switch in.Op {
	case isa.OpSETVL:
		v := m.rr(in.Src1)
		if v > isa.VLMax {
			v = isa.VLMax
		}
		m.VL = v
	case isa.OpSETVS:
		m.VS = int64(m.rr(in.Src1))
	case isa.OpSETVM:
		src := m.vreg(in.Src1)
		for i := range m.VM {
			m.VM[i] = src[i]&1 != 0
		}
	case isa.OpVCLRM:
		for i := range m.VM {
			m.VM[i] = true
		}
	case isa.OpVEXTR:
		idx := int(m.rr(in.Src2) & (isa.VLMax - 1))
		m.wr(in.Dst, refRead(m, in.Src1, idx))
	case isa.OpVINS:
		idx := int(m.rr(in.Src2) & (isa.VLMax - 1))
		refWrite(m, in.Dst, idx, m.rr(in.Src1))
	default:
		panic(fmt.Sprintf("arch: unimplemented VC op %s", in.Op))
	}
	return Effect{VL: int(m.VL), Active: 1}
}

// Registers the randomized comparison reserves: integer bases near frame
// boundaries, index vectors of aligned offsets, and the small integers the
// shift, compare and element-move operands read.
var (
	fuzzBases = []isa.Reg{isa.R(1), isa.R(2), isa.R(3), isa.R(4)}
	fuzzIdx   = []isa.Reg{isa.V(24), isa.V(25), isa.V(26), isa.VZero}
	fuzzInts  = []isa.Reg{isa.R(5), isa.R(6), isa.R(7), isa.RZero}
	fuzzFPs   = []isa.Reg{isa.F(1), isa.F(2), isa.F(3), isa.FZero}
	// Data vectors: sources and destinations, v31 among them.
	fuzzVecs = []isa.Reg{isa.V(0), isa.V(1), isa.V(2), isa.V(3), isa.V(4), isa.VZero}
	// Strides in bytes: zero, negative, and ones whose 128 elements cross
	// one or several 1 MiB frames.
	fuzzStrides = []int64{8, 8, 0, -8, 16, -24, 4096, -4096, 1 << 15, -(1 << 15), 8200}
)

// fuzzOps lists every vector opcode.
func fuzzOps() []isa.Op {
	var ops []isa.Op
	for op := isa.Op(1); ; op++ {
		info := isa.Lookup(op)
		if info.Name == "invalid" {
			break
		}
		if info.Group != isa.GScalar {
			ops = append(ops, op)
		}
	}
	return ops
}

// fuzzState gives m the randomized architectural state the comparison
// starts from.
func fuzzState(rng *rand.Rand, m *Machine) {
	for r := 0; r < 24; r++ {
		for i := range m.V[r] {
			switch rng.Intn(4) {
			case 0:
				m.V[r][i] = uint64(rng.Intn(7)) // small integers, odd and even
			case 1:
				m.V[r][i] = rng.Uint64()
			default:
				m.V[r][i] = bits(rng.NormFloat64() * 100)
			}
		}
	}
	for _, r := range fuzzIdx[:3] {
		for i := range m.V[r.Idx] {
			m.V[r.Idx][i] = uint64(rng.Intn(1<<14)) * 8
		}
	}
	for i := range m.VM {
		m.VM[i] = rng.Intn(3) != 0
	}
	for i, r := range fuzzBases {
		// Bases just below or just above a frame boundary, far enough
		// above address 0 that negative strides stay in range.
		near := uint64(rng.Intn(64)) * 8
		m.R[r.Idx] = uint64(i+8)<<mem.FrameBits - near
		if i%2 == 1 {
			m.R[r.Idx] += 2 * near
		}
	}
	// r5 is a vl or stride (a multiple of 8, up to 192), r6 a shift count,
	// r7 a small stride.
	m.R[5], m.R[6], m.R[7] = uint64(rng.Intn(25))*8, uint64(rng.Intn(64)), 24
	m.F[1], m.F[2], m.F[3] = bits(1.5), bits(rng.NormFloat64()), bits(math.Inf(1))
	m.VL = uint64(rng.Intn(isa.VLMax + 1))
	m.VS = fuzzStrides[rng.Intn(len(fuzzStrides))]
}

// fuzzInst returns a random instruction of opcode op with operands the
// reserved registers make valid.
func fuzzInst(rng *rand.Rand, op isa.Op) isa.Inst {
	pick := func(rs []isa.Reg) isa.Reg { return rs[rng.Intn(len(rs))] }
	in := isa.Inst{Op: op, Masked: rng.Intn(2) == 0}
	switch isa.Lookup(op).Group {
	case isa.GVV:
		in.Dst, in.Src1, in.Src2 = pick(fuzzVecs), pick(fuzzVecs), pick(fuzzVecs)
	case isa.GVS:
		in.Dst, in.Src1 = pick(fuzzVecs), pick(fuzzVecs)
		if rng.Intn(2) == 0 {
			in.Src2 = pick(fuzzFPs)
		} else {
			in.Src2 = pick(fuzzInts)
		}
	case isa.GSM, isa.GRM:
		in.Src2, in.Imm = pick(fuzzBases), int64(rng.Intn(16)-8)*8
		if in.Op == isa.OpVLDQ || in.Op == isa.OpVGATHQ {
			in.Dst = pick(fuzzVecs) // v31 makes it a prefetch
		} else {
			in.Src1 = pick(fuzzVecs)
		}
		if isa.Lookup(op).Group == isa.GRM {
			in.Idx = pick(fuzzIdx)
		}
	case isa.GVC:
		switch op {
		case isa.OpSETVL, isa.OpSETVS:
			in.Src1 = pick([]isa.Reg{isa.R(5), isa.R(7), isa.RZero})
		case isa.OpSETVM:
			in.Src1 = pick(fuzzVecs)
		case isa.OpVEXTR:
			in.Dst, in.Src1, in.Src2 = isa.R(8), pick(fuzzVecs), pick(fuzzInts)
		case isa.OpVINS:
			in.Dst, in.Src1, in.Src2 = pick(fuzzVecs), pick(fuzzInts), pick(fuzzInts)
		}
		in.Masked = false
	}
	return in
}

// memImage is the snapshot encoding of a memory: every frame's bytes and
// the high-water mark.
func memImage(m *mem.Memory) []byte {
	w := snapshot.NewWriter()
	m.SaveState(w)
	return w.Finish()
}

// sameEffect reports how got differs from want, field by field.
func sameEffect(got, want Effect) string {
	switch {
	case got.Taken != want.Taken:
		return fmt.Sprintf("Taken %v, want %v", got.Taken, want.Taken)
	case got.VL != want.VL:
		return fmt.Sprintf("VL %d, want %d", got.VL, want.VL)
	case got.Stride != want.Stride:
		return fmt.Sprintf("Stride %d, want %d", got.Stride, want.Stride)
	case got.Base != want.Base:
		return fmt.Sprintf("Base %#x, want %#x", got.Base, want.Base)
	case got.Active != want.Active:
		return fmt.Sprintf("Active %d, want %d", got.Active, want.Active)
	case fmt.Sprint(got.Addrs) != fmt.Sprint(want.Addrs):
		return fmt.Sprintf("Addrs %v, want %v", got.Addrs, want.Addrs)
	case fmt.Sprint(got.ElemIdx) != fmt.Sprint(want.ElemIdx):
		return fmt.Sprintf("ElemIdx %v, want %v", got.ElemIdx, want.ElemIdx)
	}
	return ""
}

// quietNaN is the one NaN the comparison lets the registers hold.
const quietNaN = 0x7ff8000000000001

// canonNaNs rewrites every NaN in m's vector registers to quietNaN. Where
// both operands of a commutative floating-point operation are NaNs, x86
// returns the one the compiler placed first, so which payload survives is
// the compiler's choice, in the reference as in Step. With one NaN in the
// registers every NaN result is that one. Both machines get the same
// rewrite after every instruction, so they stay comparable bit for bit;
// stores only ever copy rewritten registers, so memory holds no other NaN.
func canonNaNs(m *Machine) {
	for r := range m.V {
		for i, v := range m.V[r] {
			if math.IsNaN(f64(v)) {
				m.V[r][i] = quietNaN
			}
		}
	}
}

// compareStep executes in on want through the reference and on got through
// Step, into eff, and fails the test where the two machines differ.
func compareStep(t *testing.T, seed int64, got, want *Machine, in *isa.Inst, eff *Effect) {
	t.Helper()
	where := fmt.Sprintf("seed %d: %s at vl %d vs %d", seed, in, got.VL, got.VS)
	wantEff := refStep(want, in)
	got.Step(in, eff)
	if d := sameEffect(*eff, wantEff); d != "" {
		t.Fatalf("%s: effect %s", where, d)
	}
	switch {
	case got.R != want.R:
		t.Fatalf("%s: integer registers differ", where)
	case got.F != want.F:
		t.Fatalf("%s: float registers differ", where)
	case got.VL != want.VL || got.VS != want.VS:
		t.Fatalf("%s: vl/vs %d/%d, want %d/%d", where, got.VL, got.VS, want.VL, want.VS)
	case got.VM != want.VM:
		t.Fatalf("%s: mask differs", where)
	case got.Mem.HighWater() != want.Mem.HighWater():
		t.Fatalf("%s: HighWater %#x, want %#x", where, got.Mem.HighWater(), want.Mem.HighWater())
	}
	canonNaNs(got)
	canonNaNs(want)
	for r := range got.V {
		if got.V[r] != want.V[r] {
			for i := range got.V[r] {
				if got.V[r][i] != want.V[r][i] {
					t.Fatalf("%s: v%d[%d] = %#x, want %#x", where, r, i, got.V[r][i], want.V[r][i])
				}
			}
		}
	}
}

// TestStepMatchesElementReference runs random vector instructions, every
// vector opcode masked and unmasked, at vl 0-128, with v31 as source and
// destination, prefetches, and zero, negative and frame-crossing strides,
// through Step and through the element-at-a-time reference on two machines
// that start equal. After each instruction every register, the effect's
// every field and the memory's high-water mark must agree; after each run,
// the memory images must too. Step writes into a record that still holds
// the previous instruction's effect, as the trace builder's batch slots do.
func TestStepMatchesElementReference(t *testing.T) {
	ops := fuzzOps()
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := New(mem.New()), New(mem.New())
		fuzzState(rng, got)
		canonNaNs(got)
		*want = *got
		want.Mem = mem.New()
		eff := Effect{Taken: true, Addrs: []uint64{1}, VL: -1, Stride: -1, Base: 1, ElemIdx: []uint8{1}, Active: -1}
		for n := 0; n < 400; n++ {
			if rng.Intn(8) == 0 {
				vl := uint64(rng.Intn(isa.VLMax + 1))
				got.VL, want.VL = vl, vl
			}
			in := fuzzInst(rng, ops[rng.Intn(len(ops))])
			if n%len(ops) == 0 {
				// Every opcode at least once per run, whatever the draws.
				for _, op := range ops {
					in := fuzzInst(rng, op)
					compareStep(t, seed, got, want, &in, &eff)
				}
			}
			compareStep(t, seed, got, want, &in, &eff)
			if t.Failed() {
				return
			}
		}
		if !bytes.Equal(memImage(got.Mem), memImage(want.Mem)) {
			t.Fatalf("seed %d: memory images differ", seed)
		}
	}
}
