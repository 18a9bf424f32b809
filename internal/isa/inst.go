package isa

import (
	"fmt"
	"strings"
)

// Inst is one static instruction. Operand meaning by group:
//
//	scalar operate:  Dst = op(Src1, Src2|Imm)
//	scalar memory:   Dst/Src1 = data reg, Src2 = base reg, Imm = displacement
//	branch:          Src1 = condition reg, Imm = target (instruction index)
//	VV:              Dst(vec) = op(Src1(vec), Src2(vec))
//	VS:              Dst(vec) = op(Src1(vec), Src2(scalar))
//	SM:              Dst/Src1 = data vec, Src2 = base (int), Imm = displacement
//	RM:              Dst/Src1 = data vec, Src2 = base (int), Idx = index vec
//	VC:              per-op (see arch package)
//
// Masked marks execution under the vm register ("under-mask specifier").
type Inst struct {
	Op     Op
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Idx    Reg // index vector for gather/scatter
	Imm    int64
	Masked bool

	// Thread is the SMT thread id. The paper's evaluation is single
	// threaded but the Vbox is multithreaded, so the id is plumbed
	// everywhere.
	Thread uint8
}

// Info returns the opcode metadata.
func (i *Inst) Info() *Info { return Lookup(i.Op) }

// IsVMem reports whether the instruction is a vector memory access.
func (i *Inst) IsVMem() bool { return i.Info().IsVMem() }

// IsPrefetch reports whether the instruction is a (vector or scalar)
// prefetch: a load whose destination is hardwired zero. Page faults and TLB
// misses on prefetches are squashed (§2).
func (i *Inst) IsPrefetch() bool { return i.IsPrefetchWith(i.Info()) }

// IsPrefetchWith is IsPrefetch for a caller that already holds the
// instruction's opcode metadata.
func (i *Inst) IsPrefetchWith(info *Info) bool {
	return info.IsLoad && (i.Op == OpPREFQ || i.Dst.IsZero())
}

// String renders the instruction in the paper's assembly-ish style.
func (i *Inst) String() string {
	in := i.Info()
	var b strings.Builder
	b.WriteString(in.Name)
	if i.Masked {
		b.WriteString(".m")
	}
	sep := " "
	emit := func(s string) {
		b.WriteString(sep)
		b.WriteString(s)
		sep = ", "
	}
	switch {
	case in.IsLoad || in.IsStore:
		data := i.Dst
		if in.IsStore {
			data = i.Src1
		}
		if data.Valid() {
			emit(data.String())
		}
		emit(fmt.Sprintf("%d(%s)", i.Imm, i.Src2))
		if i.Idx.Valid() {
			emit("[" + i.Idx.String() + "]")
		}
	case in.IsBranch:
		if i.Src1.Valid() {
			emit(i.Src1.String())
		}
		emit(fmt.Sprintf("@%d", i.Imm))
	default:
		if i.Dst.Valid() {
			emit(i.Dst.String())
		}
		if i.Src1.Valid() {
			emit(i.Src1.String())
		}
		if i.Src2.Valid() {
			emit(i.Src2.String())
		} else if !in.IsBranch && usesImm(i) {
			emit(fmt.Sprintf("#%d", i.Imm))
		}
	}
	return b.String()
}

func usesImm(i *Inst) bool {
	switch i.Op {
	case OpLDA:
		return true
	}
	return !i.Src2.Valid() && i.Imm != 0
}
