// Package vasm is the Go-embedded macro-assembler used to hand-code every
// benchmark kernel, mirroring the paper's methodology ("these were coded in
// vector assembly by hand", §6). A kernel is a Go function that drives a
// Builder; the Builder executes each instruction on the functional machine
// immediately and appends the instruction plus its dynamic effect (resolved
// addresses, branch outcome, active element count) to the trace the timing
// models consume.
package vasm

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/isa"
)

// BuildError reports an assembly/execution failure with its position in the
// dynamic instruction stream: the sequence number, the static-site id (the
// PC stand-in), and the offending instruction. It replaces the functional
// machine's raw panics so harnesses can print *which* instruction of
// *which* kernel died instead of a bare stack trace.
type BuildError struct {
	Seq   uint64   // dynamic sequence number of the failing instruction
	Site  uint32   // static-site id (PC stand-in); 0 when unknown
	Inst  isa.Inst // the instruction being executed; zero when the kernel itself panicked
	Cause string   // the underlying panic message
}

func (e *BuildError) Error() string {
	if e.Inst.Op == 0 && e.Seq == 0 {
		return fmt.Sprintf("vasm: kernel panic: %s", e.Cause)
	}
	return fmt.Sprintf("vasm: seq %d site %d [%s]: %s", e.Seq, e.Site, e.Inst.String(), e.Cause)
}

// buildAbort unwinds a kernel after the first BuildError: the functional
// state is garbage past that point, so execution cannot meaningfully
// continue. It is recovered by the Trace producer and by CollectChecked.
type buildAbort struct{ err *BuildError }

// DynInst is one dynamic (executed) instruction.
type DynInst struct {
	Seq  uint64 // global dynamic sequence number
	Site uint32 // static-site id (stands in for the PC; branch predictor key)
	Inst isa.Inst
	Eff  arch.Effect
}

// Builder assembles and functionally executes a kernel, producing a trace.
type Builder struct {
	M    *arch.Machine
	slot func() *DynInst

	seq      uint64
	nextSite uint32
	heap     uint64 // bump allocator over simulated memory
	err      *BuildError
}

// NewBuilder returns a Builder bound to machine m; slot returns the record
// to fill for each executed instruction, and the machine executes straight
// into it, so the ~140-byte DynInst is written once, in place, instead of
// staged through a temporary copy. The heap starts at 1 MiB to keep address 0
// out of the workloads' way.
func NewBuilder(m *arch.Machine, slot func() *DynInst) *Builder {
	return &Builder{M: m, slot: slot, heap: 1 << 20}
}

// Site allocates a fresh static-site id (used to key branch prediction).
func (b *Builder) Site() uint32 {
	b.nextSite++
	return b.nextSite
}

// Emit executes in on the functional machine and appends it to the trace.
func (b *Builder) Emit(in isa.Inst) {
	b.emitAt(in, b.Site())
}

// EmitAt is Emit with an explicit static-site id, for kernels that re-emit
// the same branch site across iterations (the predictor's key).
func (b *Builder) EmitAt(in isa.Inst, site uint32) {
	b.emitAt(in, site)
}

func (b *Builder) emitAt(in isa.Inst, site uint32) {
	d := b.slot()
	d.Inst = in
	b.step(d, site)
	b.seq++
	d.Seq, d.Site = b.seq, site
}

// step executes d.Inst on the functional machine into d.Eff, converting a
// machine panic (unimplemented op, bad register class, bad memory access)
// into a positional BuildError and unwinding the kernel via buildAbort.
func (b *Builder) step(d *DynInst, site uint32) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(buildAbort); ok {
				panic(r) // already positional; keep unwinding
			}
			b.err = &BuildError{Seq: b.seq + 1, Site: site, Inst: d.Inst, Cause: fmt.Sprint(r)}
			panic(buildAbort{b.err})
		}
	}()
	b.M.Step(&d.Inst, &d.Eff)
}

// Err returns the positional error of the first failed instruction, or nil.
func (b *Builder) Err() error {
	if b.err == nil {
		return nil
	}
	return b.err
}

// Count returns the number of instructions emitted so far.
func (b *Builder) Count() uint64 { return b.seq }

// Alloc reserves n bytes of simulated memory aligned to align and returns
// the base address. The paper pads STREAMS arrays (65856 bytes) to spread
// them across L2 banks; kernels do that through the align/pad arguments.
func (b *Builder) Alloc(n, align uint64) uint64 {
	if align == 0 {
		align = 64
	}
	b.heap = (b.heap + align - 1) &^ (align - 1)
	base := b.heap
	b.heap += n
	return base
}

// AllocF64 reserves an n-element float64 array padded by pad bytes and
// returns its base address.
func (b *Builder) AllocF64(n int, pad uint64) uint64 {
	base := b.Alloc(uint64(n)*8+pad, 64)
	return base
}

// ---- scalar convenience emitters ----

// Li loads a 64-bit immediate into rd. Real Alpha synthesises large
// constants from LDA/LDAH sequences; we charge a single LDA, which slightly
// favours the scalar baseline.
func (b *Builder) Li(rd isa.Reg, v int64) {
	b.Emit(isa.Inst{Op: isa.OpLDA, Dst: rd, Src1: isa.RZero, Imm: v})
}

// Mov copies ra to rd (BIS ra, ra).
func (b *Builder) Mov(rd, ra isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpBIS, Dst: rd, Src1: ra, Src2: ra})
}

// Op3 emits a three-register operate instruction.
func (b *Builder) Op3(op isa.Op, rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: op, Dst: rd, Src1: ra, Src2: rb})
}

// OpImm emits an operate instruction with an immediate second operand.
func (b *Builder) OpImm(op isa.Op, rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: op, Dst: rd, Src1: ra, Imm: imm})
}

// AddImm adds an immediate via LDA (the Alpha idiom for pointer bumps).
func (b *Builder) AddImm(rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpLDA, Dst: rd, Src1: ra, Imm: imm})
}

// LdQ / LdT / StQ / StT emit scalar memory operations.
func (b *Builder) LdQ(rd, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.OpLDQ, Dst: rd, Src2: base, Imm: off})
}
func (b *Builder) LdT(fd, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.OpLDT, Dst: fd, Src2: base, Imm: off})
}
func (b *Builder) StQ(rs, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.OpSTQ, Src1: rs, Src2: base, Imm: off})
}
func (b *Builder) StT(fs, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.OpSTT, Src1: fs, Src2: base, Imm: off})
}

// WH64 emits a write-hint (zero-allocate line, no read-for-ownership).
func (b *Builder) WH64(base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.OpWH64, Src2: base, Imm: off})
}

// Prefetch emits a scalar software prefetch of the line at base+off.
func (b *Builder) Prefetch(base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.OpPREFQ, Dst: isa.RZero, Src2: base, Imm: off})
}

// DrainM emits the scalar-write → vector-read memory barrier of §3.4.
func (b *Builder) DrainM() { b.Emit(isa.Inst{Op: isa.OpDRAINM}) }

// Halt emits the end-of-program marker.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.OpHALT}) }

// Loop runs body n times, emitting the counter maintenance and the
// loop-closing conditional branch each iteration, using ctr as the counter
// register (counts down from n). The branch shares one static site so the
// timing model's predictor sees a stable loop branch: predicted taken,
// mispredicted once on exit.
func (b *Builder) Loop(ctr isa.Reg, n int, body func(iter int)) {
	if n <= 0 {
		return
	}
	b.Li(ctr, int64(n))
	site := b.Site()
	for i := 0; i < n; i++ {
		body(i)
		b.OpImm(isa.OpSUBQ, ctr, ctr, 1)
		b.emitAt(isa.Inst{Op: isa.OpBNE, Src1: ctr, Imm: -1}, site)
	}
}

// ---- vector convenience emitters ----

// SetVL sets the vector length from register ra.
func (b *Builder) SetVL(ra isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpSETVL, Src1: ra})
}

// SetVLImm sets vl to an immediate via a scratch register.
func (b *Builder) SetVLImm(scratch isa.Reg, vl int) {
	b.Li(scratch, int64(vl))
	b.SetVL(scratch)
}

// SetVS sets the vector stride (bytes) from register ra.
func (b *Builder) SetVS(ra isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpSETVS, Src1: ra})
}

// SetVSImm sets vs to an immediate via a scratch register.
func (b *Builder) SetVSImm(scratch isa.Reg, stride int64) {
	b.Li(scratch, stride)
	b.SetVS(scratch)
}

// SetVM copies the low bit of each element of va into the mask register.
func (b *Builder) SetVM(va isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpSETVM, Src1: va})
}

// ClrVM resets the mask to all-ones.
func (b *Builder) ClrVM() { b.Emit(isa.Inst{Op: isa.OpVCLRM}) }

// VV emits a vector-vector operate.
func (b *Builder) VV(op isa.Op, vd, va, vb isa.Reg) {
	b.Emit(isa.Inst{Op: op, Dst: vd, Src1: va, Src2: vb})
}

// VVM emits a vector-vector operate under mask.
func (b *Builder) VVM(op isa.Op, vd, va, vb isa.Reg) {
	b.Emit(isa.Inst{Op: op, Dst: vd, Src1: va, Src2: vb, Masked: true})
}

// VFMA emits the §5 FMAC extension: vd += va·vb (2 flops per element).
func (b *Builder) VFMA(vd, va, vb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpVFMAT, Dst: vd, Src1: va, Src2: vb})
}

// VSFMA emits vd += va·scalar.
func (b *Builder) VSFMA(vd, va, scalar isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpVSFMAT, Dst: vd, Src1: va, Src2: scalar})
}

// VS emits a vector-scalar operate (scalar from the EV8 register file).
func (b *Builder) VS(op isa.Op, vd, va, scalar isa.Reg) {
	b.Emit(isa.Inst{Op: op, Dst: vd, Src1: va, Src2: scalar})
}

// VLdQ emits a strided vector load: vd[i] = mem[base+off+i*vs].
func (b *Builder) VLdQ(vd, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.OpVLDQ, Dst: vd, Src2: base, Imm: off})
}

// VLdQM emits a strided vector load under mask.
func (b *Builder) VLdQM(vd, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.OpVLDQ, Dst: vd, Src2: base, Imm: off, Masked: true})
}

// VStQ emits a strided vector store: mem[base+off+i*vs] = vs_[i].
func (b *Builder) VStQ(vs_, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.OpVSTQ, Src1: vs_, Src2: base, Imm: off})
}

// VStQM emits a strided vector store under mask.
func (b *Builder) VStQM(vs_, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.OpVSTQ, Src1: vs_, Src2: base, Imm: off, Masked: true})
}

// VPref emits a strided vector prefetch (destination v31; a single
// instruction can preload 128 cache lines, §6).
func (b *Builder) VPref(base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.OpVLDQ, Dst: isa.VZero, Src2: base, Imm: off})
}

// VGath emits a gather: vd[i] = mem[base + vidx[i]].
func (b *Builder) VGath(vd, vidx, base isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpVGATHQ, Dst: vd, Idx: vidx, Src2: base})
}

// VGathPref emits a gather prefetch (destination v31).
func (b *Builder) VGathPref(vidx, base isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpVGATHQ, Dst: isa.VZero, Idx: vidx, Src2: base})
}

// VScat emits a scatter: mem[base + vidx[i]] = va[i].
func (b *Builder) VScat(va, vidx, base isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpVSCATQ, Src1: va, Idx: vidx, Src2: base})
}

// VScatM emits a scatter under mask.
func (b *Builder) VScatM(va, vidx, base isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpVSCATQ, Src1: va, Idx: vidx, Src2: base, Masked: true})
}

// VExtr moves element rb of va into scalar rd (20-cycle round trip, §2).
func (b *Builder) VExtr(rd, va, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpVEXTR, Dst: rd, Src1: va, Src2: rb})
}

// VIns writes scalar ra into element rb of vd.
func (b *Builder) VIns(vd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpVINS, Dst: vd, Src1: ra, Src2: rb})
}
