package arch

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestEveryOpcodeExecutes drives every opcode in the ISA through the
// functional machine with representative operands, both to pin the
// semantics in one table and to guarantee no opcode panics as
// "unimplemented".
func TestEveryOpcodeExecutes(t *testing.T) {
	type check func(m *Machine) bool
	cases := []struct {
		name  string
		setup func(m *Machine)
		inst  isa.Inst
		want  check
	}{
		// scalar integer
		{"lda", nil, isa.Inst{Op: isa.OpLDA, Dst: isa.R(1), Src1: isa.RZero, Imm: 77},
			func(m *Machine) bool { return m.R[1] == 77 }},
		{"addq", seti(1, 5, 2, 3), isa.Inst{Op: isa.OpADDQ, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 8 }},
		{"subq", seti(1, 5, 2, 3), isa.Inst{Op: isa.OpSUBQ, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 2 }},
		{"mulq", seti(1, 5, 2, 3), isa.Inst{Op: isa.OpMULQ, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 15 }},
		{"s8addq", seti(1, 5, 2, 3), isa.Inst{Op: isa.OpS8ADDQ, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 43 }},
		{"and", seti(1, 6, 2, 3), isa.Inst{Op: isa.OpAND, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 2 }},
		{"bis", seti(1, 6, 2, 3), isa.Inst{Op: isa.OpBIS, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 7 }},
		{"xor", seti(1, 6, 2, 3), isa.Inst{Op: isa.OpXOR, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 5 }},
		{"sll", seti(1, 3, 2, 2), isa.Inst{Op: isa.OpSLL, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 12 }},
		{"srl", seti(1, 12, 2, 2), isa.Inst{Op: isa.OpSRL, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 3 }},
		{"sra", func(m *Machine) { m.R[1] = ^uint64(0) - 7; m.R[2] = 1 },
			isa.Inst{Op: isa.OpSRA, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return int64(m.R[3]) == -4 }},
		{"cmpeq", seti(1, 4, 2, 4), isa.Inst{Op: isa.OpCMPEQ, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 1 }},
		{"cmplt", seti(1, 4, 2, 9), isa.Inst{Op: isa.OpCMPLT, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 1 }},
		{"cmple", seti(1, 9, 2, 9), isa.Inst{Op: isa.OpCMPLE, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 1 }},
		{"cmpult", func(m *Machine) { m.R[1] = 1; m.R[2] = ^uint64(0) },
			isa.Inst{Op: isa.OpCMPULT, Dst: isa.R(3), Src1: isa.R(1), Src2: isa.R(2)},
			func(m *Machine) bool { return m.R[3] == 1 }},

		// scalar float
		{"addt", setf(1, 1.5, 2, 2.5), isa.Inst{Op: isa.OpADDT, Dst: isa.F(3), Src1: isa.F(1), Src2: isa.F(2)},
			func(m *Machine) bool { return m.ReadF(3) == 4.0 }},
		{"subt", setf(1, 1.5, 2, 2.5), isa.Inst{Op: isa.OpSUBT, Dst: isa.F(3), Src1: isa.F(1), Src2: isa.F(2)},
			func(m *Machine) bool { return m.ReadF(3) == -1.0 }},
		{"mult", setf(1, 1.5, 2, 2.0), isa.Inst{Op: isa.OpMULT, Dst: isa.F(3), Src1: isa.F(1), Src2: isa.F(2)},
			func(m *Machine) bool { return m.ReadF(3) == 3.0 }},
		{"divt", setf(1, 3.0, 2, 2.0), isa.Inst{Op: isa.OpDIVT, Dst: isa.F(3), Src1: isa.F(1), Src2: isa.F(2)},
			func(m *Machine) bool { return m.ReadF(3) == 1.5 }},
		{"sqrtt", setf(1, 9.0, 0, 0), isa.Inst{Op: isa.OpSQRTT, Dst: isa.F(3), Src1: isa.F(1)},
			func(m *Machine) bool { return m.ReadF(3) == 3.0 }},
		{"cmpteq", setf(1, 2.0, 2, 2.0), isa.Inst{Op: isa.OpCMPTEQ, Dst: isa.F(3), Src1: isa.F(1), Src2: isa.F(2)},
			func(m *Machine) bool { return m.F[3] == 1 }},
		{"cmptlt", setf(1, 1.0, 2, 2.0), isa.Inst{Op: isa.OpCMPTLT, Dst: isa.F(3), Src1: isa.F(1), Src2: isa.F(2)},
			func(m *Machine) bool { return m.F[3] == 1 }},
		{"cmptle", setf(1, 2.0, 2, 2.0), isa.Inst{Op: isa.OpCMPTLE, Dst: isa.F(3), Src1: isa.F(1), Src2: isa.F(2)},
			func(m *Machine) bool { return m.F[3] == 1 }},
		{"cvtqt", seti(1, 9, 0, 0), isa.Inst{Op: isa.OpCVTQT, Dst: isa.F(3), Src1: isa.R(1)},
			func(m *Machine) bool { return m.ReadF(3) == 9.0 }},
		{"cvttq", setf(1, 7.9, 0, 0), isa.Inst{Op: isa.OpCVTTQ, Dst: isa.R(3), Src1: isa.F(1)},
			func(m *Machine) bool { return m.R[3] == 7 }},

		// vector integer (one representative lane checked)
		{"vaddq", setv(0, 10, 1, 4), isa.Inst{Op: isa.OpVADDQ, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 14 }},
		{"vsubq", setv(0, 10, 1, 4), isa.Inst{Op: isa.OpVSUBQ, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 6 }},
		{"vmulq", setv(0, 10, 1, 4), isa.Inst{Op: isa.OpVMULQ, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 40 }},
		{"vand", setv(0, 6, 1, 3), isa.Inst{Op: isa.OpVAND, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 2 }},
		{"vbis", setv(0, 6, 1, 3), isa.Inst{Op: isa.OpVBIS, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 7 }},
		{"vxor", setv(0, 6, 1, 3), isa.Inst{Op: isa.OpVXOR, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 5 }},
		{"vsll", setv(0, 3, 1, 2), isa.Inst{Op: isa.OpVSLL, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 12 }},
		{"vsrl", setv(0, 12, 1, 2), isa.Inst{Op: isa.OpVSRL, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 3 }},
		{"vsra", func(m *Machine) { fillv(m, 0, ^uint64(0)-7); fillv(m, 1, 1) },
			isa.Inst{Op: isa.OpVSRA, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return int64(m.V[2][5]) == -4 }},
		{"vcmpeq", setv(0, 4, 1, 4), isa.Inst{Op: isa.OpVCMPEQ, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 1 }},
		{"vcmpne", setv(0, 4, 1, 5), isa.Inst{Op: isa.OpVCMPNE, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 1 }},
		{"vcmplt", setv(0, 4, 1, 5), isa.Inst{Op: isa.OpVCMPLT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 1 }},
		{"vcmple", setv(0, 5, 1, 5), isa.Inst{Op: isa.OpVCMPLE, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 1 }},

		// vector float
		{"vaddt", setvf(0, 1.5, 1, 2.5), isa.Inst{Op: isa.OpVADDT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 4.0 }},
		{"vsubt", setvf(0, 1.5, 1, 2.5), isa.Inst{Op: isa.OpVSUBT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == -1.0 }},
		{"vmult", setvf(0, 1.5, 1, 2.0), isa.Inst{Op: isa.OpVMULT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 3.0 }},
		{"vdivt", setvf(0, 3.0, 1, 2.0), isa.Inst{Op: isa.OpVDIVT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 1.5 }},
		{"vsqrtt", setvf(0, 16.0, 0, 0), isa.Inst{Op: isa.OpVSQRTT, Dst: isa.V(2), Src1: isa.V(0)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 4.0 }},
		{"vcmpteq", setvf(0, 2.0, 1, 2.0), isa.Inst{Op: isa.OpVCMPTEQ, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 1 }},
		{"vcmptlt", setvf(0, 1.0, 1, 2.0), isa.Inst{Op: isa.OpVCMPTLT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 1 }},
		{"vcmptle", setvf(0, 2.0, 1, 2.0), isa.Inst{Op: isa.OpVCMPTLE, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.V[2][5] == 1 }},
		{"vmaxt", setvf(0, 1.0, 1, 2.0), isa.Inst{Op: isa.OpVMAXT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 2.0 }},
		{"vmint", setvf(0, 1.0, 1, 2.0), isa.Inst{Op: isa.OpVMINT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 1.0 }},
		{"vcvtqt", setv(0, 9, 0, 0), isa.Inst{Op: isa.OpVCVTQT, Dst: isa.V(2), Src1: isa.V(0)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 9.0 }},
		{"vcvttq", setvf(0, 7.9, 0, 0), isa.Inst{Op: isa.OpVCVTTQ, Dst: isa.V(2), Src1: isa.V(0)},
			func(m *Machine) bool { return m.V[2][5] == 7 }},
		{"vfmat", func(m *Machine) { fillvf(m, 0, 2.0); fillvf(m, 1, 3.0); fillvf(m, 2, 10.0) },
			isa.Inst{Op: isa.OpVFMAT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.V(1)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 16.0 }},

		// vector-scalar (scalar in f1/r1)
		{"vsaddt", vsSetup(2.5, 0, 1.5), isa.Inst{Op: isa.OpVSADDT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.F(1)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 4.0 }},
		{"vssubt", vsSetup(2.5, 0, 1.5), isa.Inst{Op: isa.OpVSSUBT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.F(1)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 1.0 }},
		{"vsmult", vsSetup(2.0, 0, 1.5), isa.Inst{Op: isa.OpVSMULT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.F(1)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 3.0 }},
		{"vsdivt", vsSetup(3.0, 0, 2.0), isa.Inst{Op: isa.OpVSDIVT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.F(1)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 1.5 }},
		{"vsfmat", func(m *Machine) { fillvf(m, 0, 3.0); fillvf(m, 2, 10.0); m.WriteF(1, 2.0) },
			isa.Inst{Op: isa.OpVSFMAT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.F(1)},
			func(m *Machine) bool { return m.ReadVF(2, 5) == 16.0 }},
		{"vsaddq", func(m *Machine) { fillv(m, 0, 10); m.R[1] = 4 },
			isa.Inst{Op: isa.OpVSADDQ, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.R(1)},
			func(m *Machine) bool { return m.V[2][5] == 14 }},
		{"vssubq", func(m *Machine) { fillv(m, 0, 10); m.R[1] = 4 },
			isa.Inst{Op: isa.OpVSSUBQ, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.R(1)},
			func(m *Machine) bool { return m.V[2][5] == 6 }},
		{"vsmulq", func(m *Machine) { fillv(m, 0, 10); m.R[1] = 4 },
			isa.Inst{Op: isa.OpVSMULQ, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.R(1)},
			func(m *Machine) bool { return m.V[2][5] == 40 }},
		{"vsand", func(m *Machine) { fillv(m, 0, 6); m.R[1] = 3 },
			isa.Inst{Op: isa.OpVSAND, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.R(1)},
			func(m *Machine) bool { return m.V[2][5] == 2 }},
		{"vsbis", func(m *Machine) { fillv(m, 0, 6); m.R[1] = 3 },
			isa.Inst{Op: isa.OpVSBIS, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.R(1)},
			func(m *Machine) bool { return m.V[2][5] == 7 }},
		{"vsxor", func(m *Machine) { fillv(m, 0, 6); m.R[1] = 3 },
			isa.Inst{Op: isa.OpVSXOR, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.R(1)},
			func(m *Machine) bool { return m.V[2][5] == 5 }},
		{"vssll", func(m *Machine) { fillv(m, 0, 3); m.R[1] = 2 },
			isa.Inst{Op: isa.OpVSSLL, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.R(1)},
			func(m *Machine) bool { return m.V[2][5] == 12 }},
		{"vssrl", func(m *Machine) { fillv(m, 0, 12); m.R[1] = 2 },
			isa.Inst{Op: isa.OpVSSRL, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.R(1)},
			func(m *Machine) bool { return m.V[2][5] == 3 }},
		{"vscmpeq", func(m *Machine) { fillv(m, 0, 4); m.R[1] = 4 },
			isa.Inst{Op: isa.OpVSCMPEQ, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.R(1)},
			func(m *Machine) bool { return m.V[2][5] == 1 }},
		{"vscmplt", func(m *Machine) { fillv(m, 0, 3); m.R[1] = 4 },
			isa.Inst{Op: isa.OpVSCMPLT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.R(1)},
			func(m *Machine) bool { return m.V[2][5] == 1 }},
		{"vscmpteq", vsSetup(2.0, 0, 2.0), isa.Inst{Op: isa.OpVSCMPTEQ, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.F(1)},
			func(m *Machine) bool { return m.V[2][5] == 1 }},
		{"vscmptlt", vsSetup(1.0, 0, 2.0), isa.Inst{Op: isa.OpVSCMPTLT, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.F(1)},
			func(m *Machine) bool { return m.V[2][5] == 1 }},
		{"vscmptle", vsSetup(2.0, 0, 2.0), isa.Inst{Op: isa.OpVSCMPTLE, Dst: isa.V(2), Src1: isa.V(0), Src2: isa.F(1)},
			func(m *Machine) bool { return m.V[2][5] == 1 }},
	}

	covered := map[isa.Op]bool{}
	for _, c := range cases {
		m := New(mem.New())
		if c.setup != nil {
			c.setup(m)
		}
		step(m, &c.inst)
		if !c.want(m) {
			t.Errorf("%s: semantics check failed", c.name)
		}
		covered[c.inst.Op] = true
	}

	// Opcodes exercised thoroughly by other tests.
	elsewhere := []isa.Op{
		isa.OpLDQ, isa.OpSTQ, isa.OpLDT, isa.OpSTT, isa.OpWH64, isa.OpPREFQ,
		isa.OpBR, isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBLE, isa.OpBGT, isa.OpBGE,
		isa.OpHALT, isa.OpDRAINM,
		isa.OpVLDQ, isa.OpVSTQ, isa.OpVGATHQ, isa.OpVSCATQ,
		isa.OpSETVL, isa.OpSETVS, isa.OpSETVM, isa.OpVEXTR, isa.OpVINS, isa.OpVCLRM,
		isa.OpVMERG,
	}
	for _, op := range elsewhere {
		covered[op] = true
	}
	for op := isa.Op(1); ; op++ {
		info := isa.Lookup(op)
		if info.Name == "invalid" {
			break
		}
		if !covered[op] {
			t.Errorf("opcode %s has no semantics coverage", info.Name)
		}
	}
}

func seti(r1 int, v1 uint64, r2 int, v2 uint64) func(*Machine) {
	return func(m *Machine) {
		m.R[r1] = v1
		if r2 != 0 {
			m.R[r2] = v2
		}
	}
}

func setf(f1 int, v1 float64, f2 int, v2 float64) func(*Machine) {
	return func(m *Machine) {
		m.WriteF(f1, v1)
		if f2 != 0 {
			m.WriteF(f2, v2)
		}
	}
}

func fillv(m *Machine, v int, val uint64) {
	for i := 0; i < isa.VLMax; i++ {
		m.V[v][i] = val
	}
}

func fillvf(m *Machine, v int, val float64) {
	fillv(m, v, math.Float64bits(val))
}

func setv(v1 int, x1 uint64, v2 int, x2 uint64) func(*Machine) {
	return func(m *Machine) {
		fillv(m, v1, x1)
		if v2 != v1 {
			fillv(m, v2, x2)
		}
	}
}

func setvf(v1 int, x1 float64, v2 int, x2 float64) func(*Machine) {
	return func(m *Machine) {
		fillvf(m, v1, x1)
		if v2 != v1 {
			fillvf(m, v2, x2)
		}
	}
}

// vsSetup fills v<va> with vecVal and f1 with scalar.
func vsSetup(vecVal float64, va int, scalar float64) func(*Machine) {
	return func(m *Machine) {
		fillvf(m, va, vecVal)
		m.WriteF(1, scalar)
	}
}
