// Package arch implements the architectural (functional) Tarantula machine:
// the scalar Alpha subset plus the full vector extension semantics of §2.
// The timing models never compute values; they consume the dynamic effects
// (addresses, branch outcomes, active element counts) this package records,
// which is the ASIM-style functional-first, timing-directed split.
package arch

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Machine is the architectural state of one hardware thread.
type Machine struct {
	Mem *mem.Memory

	R  [32]uint64            // scalar integer file (r31 reads zero)
	F  [32]uint64            // scalar float file, IEEE bits (f31 reads zero)
	V  [32][isa.VLMax]uint64 // vector file (v31 reads zero)
	VL uint64                // vector length, 1..128 (8-bit register)
	VS int64                 // vector stride in bytes (64-bit register)
	VM [isa.VLMax]bool       // vector mask

	// discard is where writes to v31 land; v31 reads as zeroRow.
	discard [isa.VLMax]uint64

	// Bump arenas behind Effect.Addrs and a masked access's Effect.ElemIdx
	// (an unmasked one's is a prefix of the shared elemIdx). Timing models keep
	// those slice headers inside in-flight uops, so carved-out regions are
	// never rewritten — a full arena is abandoned to the collector and a
	// fresh chunk started. This amortises what used to be one (or two)
	// slice allocations on every memory instruction in the trace hot path.
	addrArena []uint64
	idxArena  []uint8
}

// New returns a machine with vl=128, vs=8 (unit stride over quadwords) and
// an all-ones mask, bound to m.
func New(m *mem.Memory) *Machine {
	mc := &Machine{Mem: m, VL: isa.VLMax, VS: 8}
	for i := range mc.VM {
		mc.VM[i] = true
	}
	return mc
}

// Effect records the dynamic outcome of one instruction: everything the
// timing model needs that is not static.
type Effect struct {
	// Taken is the branch outcome for branches.
	Taken bool
	// Addrs holds the element addresses touched by a memory instruction
	// (one entry for scalar memory ops). Inactive (masked-off or beyond-vl)
	// elements are absent.
	Addrs []uint64
	// VL is the vector length in force when a vector instruction executed.
	VL int
	// Stride is the vs value in force for SM instructions, in bytes.
	Stride int64
	// Base is the effective base address (rb + imm) of a vector memory
	// instruction; with Stride it reconstructs the full address pattern
	// even when masking leaves holes in Addrs.
	Base uint64
	// ElemIdx holds, parallel to Addrs, the vector element index of each
	// active address — the Vbox needs it to assign lanes. It is read-only:
	// unmasked accesses share one backing array.
	ElemIdx []uint8
	// Active is the number of elements that actually executed (vl minus
	// masked-off elements).
	Active int
}

// arenaChunk is the arena granularity in elements; the retained window is
// bounded by the uops in flight plus the trace's channel buffer, so at most
// a handful of chunks are live at once.
const arenaChunk = 4096

// newAddrs reserves room for n addresses and returns it as an empty slice to
// append into. The region is exclusively the caller's: the arena only ever
// advances past it.
func (m *Machine) newAddrs(n int) []uint64 {
	if len(m.addrArena)+n > cap(m.addrArena) {
		c := arenaChunk
		if n > c {
			c = n
		}
		m.addrArena = make([]uint64, 0, c)
	}
	base := len(m.addrArena)
	m.addrArena = m.addrArena[:base+n]
	return m.addrArena[base : base : base+n]
}

// newIdxs is newAddrs for element indices.
func (m *Machine) newIdxs(n int) []uint8 {
	if len(m.idxArena)+n > cap(m.idxArena) {
		c := arenaChunk
		if n > c {
			c = n
		}
		m.idxArena = make([]uint8, 0, c)
	}
	base := len(m.idxArena)
	m.idxArena = m.idxArena[:base+n]
	return m.idxArena[base : base : base+n]
}

// addr1 wraps a scalar memory address in an arena-backed one-element slice.
func (m *Machine) addr1(ea uint64) []uint64 {
	return append(m.newAddrs(1), ea)
}

func (m *Machine) rr(r isa.Reg) uint64 {
	switch r.Kind {
	case isa.KindInt:
		if r.Idx == 31 {
			return 0
		}
		return m.R[r.Idx]
	case isa.KindFP:
		if r.Idx == 31 {
			return 0
		}
		return m.F[r.Idx]
	case isa.KindCtl:
		switch r.Idx {
		case isa.CtlVL:
			return m.VL
		case isa.CtlVS:
			return uint64(m.VS)
		}
	}
	panic(fmt.Sprintf("arch: scalar read of %s", r))
}

func (m *Machine) wr(r isa.Reg, v uint64) {
	switch r.Kind {
	case isa.KindInt:
		if r.Idx != 31 {
			m.R[r.Idx] = v
		}
		return
	case isa.KindFP:
		if r.Idx != 31 {
			m.F[r.Idx] = v
		}
		return
	}
	panic(fmt.Sprintf("arch: scalar write of %s", r))
}

func (m *Machine) vreg(r isa.Reg) *[isa.VLMax]uint64 {
	if r.Kind != isa.KindVec {
		panic(fmt.Sprintf("arch: vector access to %s", r))
	}
	return &m.V[r.Idx]
}

// zeroRow is the row v31 reads as. Nothing writes it.
var zeroRow [isa.VLMax]uint64

// elemIdx holds every element index in order: the ElemIdx of an unmasked
// vector memory instruction is a prefix of it.
var elemIdx = func() (t [isa.VLMax]uint8) {
	for i := range t {
		t[i] = uint8(i)
	}
	return t
}()

// src returns the row vector register r reads, honouring v31 = 0.
func (m *Machine) src(r isa.Reg) *[isa.VLMax]uint64 {
	if r.Idx == 31 {
		return &zeroRow
	}
	return m.vreg(r)
}

// dst returns the row vector register r writes; a write to v31 lands in
// the machine's discard row and is never read.
func (m *Machine) dst(r isa.Reg) *[isa.VLMax]uint64 {
	if r.Idx == 31 {
		return &m.discard
	}
	return m.vreg(r)
}

// mask returns the mask an instruction executes under: nil when it is
// unmasked, so every element below vl is active.
func (m *Machine) mask(in *isa.Inst) *[isa.VLMax]bool {
	if in.Masked {
		return &m.VM
	}
	return nil
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }
func bits(f float64) uint64   { return math.Float64bits(f) }
func b2q(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Step executes one instruction and writes its dynamic effect into eff,
// every field of it, so one record can be reused from instruction to
// instruction: the trace builder executes straight into its batch slot.
// Branch targets are not followed here; the caller (the vasm trace builder
// or the program Runner) owns control flow.
//
// A vector instruction costs per instruction, not per element: it resolves
// its registers and its mask mode once, and runs unmasked as whole-row
// loops. Elements at vl..127 are UNPREDICTABLE per the ISA (§2, Figure 1);
// they are left unchanged, which is one legal behaviour.
func (m *Machine) Step(in *isa.Inst, eff *Effect) {
	*eff = Effect{}
	info := in.Info()
	switch info.Group {
	case isa.GScalar:
		m.stepScalar(in, eff)
	case isa.GVV:
		m.stepVV(in, eff)
	case isa.GVS:
		m.stepVS(in, eff)
	case isa.GSM:
		m.stepSM(in, info, eff)
	case isa.GRM:
		m.stepRM(in, info, eff)
	case isa.GVC:
		m.stepVC(in, eff)
	default:
		panic("arch: unknown group")
	}
}

func (m *Machine) stepScalar(in *isa.Inst, eff *Effect) {
	var a, b uint64
	if in.Src1.Valid() {
		a = m.rr(in.Src1)
	}
	if in.Src2.Valid() {
		b = m.rr(in.Src2)
	} else {
		b = uint64(in.Imm)
	}
	switch in.Op {
	case isa.OpLDA:
		// rd = rb + imm; with Src1 == RZero this is load-immediate.
		m.wr(in.Dst, a+uint64(in.Imm))
	case isa.OpADDQ:
		m.wr(in.Dst, a+b)
	case isa.OpSUBQ:
		m.wr(in.Dst, a-b)
	case isa.OpMULQ:
		m.wr(in.Dst, a*b)
	case isa.OpS8ADDQ:
		m.wr(in.Dst, a*8+b)
	case isa.OpAND:
		m.wr(in.Dst, a&b)
	case isa.OpBIS:
		m.wr(in.Dst, a|b)
	case isa.OpXOR:
		m.wr(in.Dst, a^b)
	case isa.OpSLL:
		m.wr(in.Dst, a<<(b&63))
	case isa.OpSRL:
		m.wr(in.Dst, a>>(b&63))
	case isa.OpSRA:
		m.wr(in.Dst, uint64(int64(a)>>(b&63)))
	case isa.OpCMPEQ:
		m.wr(in.Dst, b2q(a == b))
	case isa.OpCMPLT:
		m.wr(in.Dst, b2q(int64(a) < int64(b)))
	case isa.OpCMPLE:
		m.wr(in.Dst, b2q(int64(a) <= int64(b)))
	case isa.OpCMPULT:
		m.wr(in.Dst, b2q(a < b))

	case isa.OpADDT:
		m.wr(in.Dst, bits(f64(a)+f64(b)))
	case isa.OpSUBT:
		m.wr(in.Dst, bits(f64(a)-f64(b)))
	case isa.OpMULT:
		m.wr(in.Dst, bits(f64(a)*f64(b)))
	case isa.OpDIVT:
		m.wr(in.Dst, bits(f64(a)/f64(b)))
	case isa.OpSQRTT:
		m.wr(in.Dst, bits(math.Sqrt(f64(a))))
	case isa.OpCMPTEQ:
		m.wr(in.Dst, b2q(f64(a) == f64(b)))
	case isa.OpCMPTLT:
		m.wr(in.Dst, b2q(f64(a) < f64(b)))
	case isa.OpCMPTLE:
		m.wr(in.Dst, b2q(f64(a) <= f64(b)))
	case isa.OpCVTQT:
		m.wr(in.Dst, bits(float64(int64(a))))
	case isa.OpCVTTQ:
		m.wr(in.Dst, uint64(int64(f64(a))))

	case isa.OpLDQ, isa.OpLDT:
		ea := m.rr(in.Src2) + uint64(in.Imm)
		m.wr(in.Dst, m.Mem.LoadQ(ea))
		eff.Addrs = m.addr1(ea)
	case isa.OpPREFQ:
		ea := m.rr(in.Src2) + uint64(in.Imm)
		eff.Addrs = m.addr1(ea)
	case isa.OpSTQ, isa.OpSTT:
		ea := m.rr(in.Src2) + uint64(in.Imm)
		m.Mem.StoreQ(ea, m.rr(in.Src1))
		eff.Addrs = m.addr1(ea)
	case isa.OpWH64:
		ea := (m.rr(in.Src2) + uint64(in.Imm)) &^ 63
		m.Mem.ZeroLine(ea)
		eff.Addrs = m.addr1(ea)

	// A branch records its outcome and no active element.
	case isa.OpBR:
		eff.Taken = true
		return
	case isa.OpBEQ:
		eff.Taken = a == 0
		return
	case isa.OpBNE:
		eff.Taken = a != 0
		return
	case isa.OpBLT:
		eff.Taken = int64(a) < 0
		return
	case isa.OpBLE:
		eff.Taken = int64(a) <= 0
		return
	case isa.OpBGT:
		eff.Taken = int64(a) > 0
		return
	case isa.OpBGE:
		eff.Taken = int64(a) >= 0
		return

	case isa.OpHALT, isa.OpDRAINM:
		// No architectural effect; DrainM ordering is a timing-model
		// matter (write-buffer purge + replay trap).
	default:
		panic(fmt.Sprintf("arch: unimplemented scalar op %s", in.Op))
	}
	eff.Active = 1
}

func (m *Machine) stepVV(in *isa.Inst, eff *Effect) {
	vl := int(m.VL)
	a, d := m.src(in.Src1)[:vl], m.dst(in.Dst)[:vl]
	eff.VL = vl
	mask := m.mask(in)
	if mask == nil {
		eff.Active = vl
		switch in.Op {
		case isa.OpVADDT:
			b := m.src(in.Src2)[:vl]
			for i := range d {
				d[i] = bits(f64(a[i]) + f64(b[i]))
			}
			return
		case isa.OpVSUBT:
			b := m.src(in.Src2)[:vl]
			for i := range d {
				d[i] = bits(f64(a[i]) - f64(b[i]))
			}
			return
		case isa.OpVMULT:
			b := m.src(in.Src2)[:vl]
			for i := range d {
				d[i] = bits(f64(a[i]) * f64(b[i]))
			}
			return
		}
	}
	act := 0
	switch in.Op {
	case isa.OpVSQRTT, isa.OpVCVTQT, isa.OpVCVTTQ:
		for i := range d {
			if mask == nil || mask[i] {
				act++
				d[i] = vvUnary(in.Op, a[i])
			}
		}
	case isa.OpVMERG:
		b := m.src(in.Src2)[:vl]
		for i := range d {
			if mask == nil || mask[i] {
				act++
				if m.VM[i] {
					d[i] = a[i]
				} else {
					d[i] = b[i]
				}
			}
		}
	case isa.OpVFMAT:
		b, c := m.src(in.Src2)[:vl], m.src(in.Dst)[:vl]
		for i := range d {
			if mask == nil || mask[i] {
				act++
				d[i] = bits(f64(c[i]) + f64(a[i])*f64(b[i]))
			}
		}
	default:
		b := m.src(in.Src2)[:vl]
		for i := range d {
			if mask == nil || mask[i] {
				act++
				d[i] = vvBinary(in.Op, a[i], b[i])
			}
		}
	}
	eff.Active = act
}

func vvUnary(op isa.Op, a uint64) uint64 {
	switch op {
	case isa.OpVSQRTT:
		return bits(math.Sqrt(f64(a)))
	case isa.OpVCVTQT:
		return bits(float64(int64(a)))
	case isa.OpVCVTTQ:
		return uint64(int64(f64(a)))
	}
	panic("arch: bad unary")
}

func vvBinary(op isa.Op, a, b uint64) uint64 {
	switch op {
	case isa.OpVADDQ, isa.OpVSADDQ:
		return a + b
	case isa.OpVSUBQ, isa.OpVSSUBQ:
		return a - b
	case isa.OpVMULQ, isa.OpVSMULQ:
		return a * b
	case isa.OpVAND, isa.OpVSAND:
		return a & b
	case isa.OpVBIS, isa.OpVSBIS:
		return a | b
	case isa.OpVXOR, isa.OpVSXOR:
		return a ^ b
	case isa.OpVSLL, isa.OpVSSLL:
		return a << (b & 63)
	case isa.OpVSRL, isa.OpVSSRL:
		return a >> (b & 63)
	case isa.OpVSRA:
		return uint64(int64(a) >> (b & 63))
	case isa.OpVCMPEQ, isa.OpVSCMPEQ:
		return b2q(a == b)
	case isa.OpVCMPNE:
		return b2q(a != b)
	case isa.OpVCMPLT, isa.OpVSCMPLT:
		return b2q(int64(a) < int64(b))
	case isa.OpVCMPLE:
		return b2q(int64(a) <= int64(b))
	case isa.OpVADDT, isa.OpVSADDT:
		return bits(f64(a) + f64(b))
	case isa.OpVSUBT, isa.OpVSSUBT:
		return bits(f64(a) - f64(b))
	case isa.OpVMULT, isa.OpVSMULT:
		return bits(f64(a) * f64(b))
	case isa.OpVDIVT, isa.OpVSDIVT:
		return bits(f64(a) / f64(b))
	case isa.OpVCMPTEQ, isa.OpVSCMPTEQ:
		return b2q(f64(a) == f64(b))
	case isa.OpVCMPTLT, isa.OpVSCMPTLT:
		return b2q(f64(a) < f64(b))
	case isa.OpVCMPTLE, isa.OpVSCMPTLE:
		return b2q(f64(a) <= f64(b))
	case isa.OpVMAXT:
		return bits(math.Max(f64(a), f64(b)))
	case isa.OpVMINT:
		return bits(math.Min(f64(a), f64(b)))
	}
	panic(fmt.Sprintf("arch: bad binary %s", op))
}

func (m *Machine) stepVS(in *isa.Inst, eff *Effect) {
	vl := int(m.VL)
	s := m.rr(in.Src2)
	a, d := m.src(in.Src1)[:vl], m.dst(in.Dst)[:vl]
	eff.VL = vl
	mask := m.mask(in)
	if mask == nil {
		eff.Active = vl
		switch in.Op {
		case isa.OpVSADDT:
			for i := range d {
				d[i] = bits(f64(a[i]) + f64(s))
			}
			return
		case isa.OpVSMULT:
			for i := range d {
				d[i] = bits(f64(a[i]) * f64(s))
			}
			return
		case isa.OpVSFMAT:
			c := m.src(in.Dst)[:vl]
			for i := range d {
				d[i] = bits(f64(c[i]) + f64(a[i])*f64(s))
			}
			return
		}
	}
	act := 0
	if in.Op == isa.OpVSFMAT {
		c := m.src(in.Dst)[:vl]
		for i := range d {
			if mask == nil || mask[i] {
				act++
				d[i] = bits(f64(c[i]) + f64(a[i])*f64(s))
			}
		}
	} else {
		for i := range d {
			if mask == nil || mask[i] {
				act++
				d[i] = vvBinary(in.Op, a[i], s)
			}
		}
	}
	eff.Active = act
}

func (m *Machine) stepSM(in *isa.Inst, info *isa.Info, eff *Effect) {
	vl := int(m.VL)
	base := m.rr(in.Src2) + uint64(in.Imm)
	stride := m.VS
	eff.VL, eff.Stride, eff.Base = vl, stride, base
	// A load to v31 is a prefetch: no architectural effect.
	prefetch := info.IsLoad && in.Dst.Idx == 31
	if m.mask(in) == nil {
		addrs := m.newAddrs(vl)[:vl]
		ea := base
		for i := range addrs {
			addrs[i] = ea
			ea += uint64(stride)
		}
		eff.Addrs, eff.ElemIdx, eff.Active = addrs, elemIdx[:vl:vl], vl
		switch {
		case info.IsStore:
			m.Mem.StoreQStrided(base, stride, m.src(in.Src1)[:vl])
		case !prefetch:
			m.Mem.LoadQStrided(m.dst(in.Dst)[:vl], base, stride)
		}
		return
	}
	var row *[isa.VLMax]uint64
	switch {
	case info.IsStore:
		row = m.src(in.Src1)
	case !prefetch:
		row = m.dst(in.Dst)
	}
	addrs := m.newAddrs(vl)
	idxs := m.newIdxs(vl)
	for i := 0; i < vl; i++ {
		if !m.VM[i] {
			continue
		}
		ea := base + uint64(int64(i)*stride)
		addrs = append(addrs, ea)
		idxs = append(idxs, uint8(i))
		switch {
		case info.IsStore:
			m.Mem.StoreQ(ea, row[i])
		case !prefetch:
			row[i] = m.Mem.LoadQ(ea)
		}
	}
	eff.Addrs, eff.ElemIdx, eff.Active = addrs, idxs, len(addrs)
}

func (m *Machine) stepRM(in *isa.Inst, info *isa.Info, eff *Effect) {
	vl := int(m.VL)
	base := m.rr(in.Src2) + uint64(in.Imm)
	eff.VL, eff.Base = vl, base
	off := m.src(in.Idx)[:vl]
	var row *[isa.VLMax]uint64
	switch {
	case info.IsStore:
		row = m.src(in.Src1)
	case in.Dst.Idx != 31: // a gather to v31 is a prefetch
		row = m.dst(in.Dst)
	}
	access := func(i int, ea uint64) {
		switch {
		case info.IsStore:
			m.Mem.StoreQ(ea, row[i])
		case row != nil:
			row[i] = m.Mem.LoadQ(ea)
		}
	}
	if m.mask(in) == nil {
		addrs := m.newAddrs(vl)[:vl]
		for i, o := range off {
			addrs[i] = base + o
		}
		eff.Addrs, eff.ElemIdx, eff.Active = addrs, elemIdx[:vl:vl], vl
		for i, ea := range addrs {
			access(i, ea)
		}
		return
	}
	addrs := m.newAddrs(vl)
	idxs := m.newIdxs(vl)
	for i, o := range off {
		if !m.VM[i] {
			continue
		}
		ea := base + o
		addrs = append(addrs, ea)
		idxs = append(idxs, uint8(i))
		access(i, ea)
	}
	eff.Addrs, eff.ElemIdx, eff.Active = addrs, idxs, len(addrs)
}

func (m *Machine) stepVC(in *isa.Inst, eff *Effect) {
	switch in.Op {
	case isa.OpSETVL:
		v := m.rr(in.Src1)
		if v > isa.VLMax {
			v = isa.VLMax
		}
		m.VL = v // vl=0: subsequent vector ops are no-ops
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
		m.wr(in.Dst, m.src(in.Src1)[idx])
	case isa.OpVINS:
		idx := int(m.rr(in.Src2) & (isa.VLMax - 1))
		m.dst(in.Dst)[idx] = m.rr(in.Src1)
	default:
		panic(fmt.Sprintf("arch: unimplemented VC op %s", in.Op))
	}
	eff.VL, eff.Active = int(m.VL), 1
}

// ReadF returns scalar float register n as a float64.
func (m *Machine) ReadF(n int) float64 { return f64(m.F[n]) }

// WriteF sets scalar float register n from a float64.
func (m *Machine) WriteF(n int, v float64) { m.F[n] = bits(v) }

// ReadVF returns element i of vector register n as a float64.
func (m *Machine) ReadVF(n, i int) float64 { return f64(m.V[n][i]) }

// WriteVF sets element i of vector register n from a float64.
func (m *Machine) WriteVF(n, i int, v float64) { m.V[n][i] = bits(v) }
