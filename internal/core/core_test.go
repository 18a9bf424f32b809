package core

import (
	"testing"
)

// The core's end-to-end behaviour is exercised through internal/sim
// (behavior_test.go, smt_test.go); these unit tests cover the pieces with
// interesting local invariants: the write-back L1 and the register
// enumeration the renamer depends on.

func TestL1FillProbeInvalidate(t *testing.T) {
	c := newL1(64<<10, 2, 64)
	if c.probe(0x1000) {
		t.Fatal("empty cache hit")
	}
	c.fill(0x1000, false)
	if !c.probe(0x1000) {
		t.Fatal("filled line missing")
	}
	c.markDirty(0x1000)
	if dirty := c.invalidate(0x1000); !dirty {
		t.Fatal("invalidate lost the dirty bit")
	}
	if c.probe(0x1000) {
		t.Fatal("line survived invalidate")
	}
	if c.invalidate(0x1000) {
		t.Fatal("double invalidate reported dirty")
	}
}

func TestL1EvictsLRUAndReportsDirtyVictim(t *testing.T) {
	c := newL1(2*64*2, 2, 64) // 2 sets × 2 ways
	// Three lines mapping to the same set (set stride = 128 bytes).
	a, b, d := uint64(0), uint64(128), uint64(256)
	c.fill(a, false)
	c.fill(b, false)
	c.markDirty(a)
	c.probe(a) // make b the LRU
	victim, dirty := c.fill(d, false)
	if victim != b || dirty {
		t.Fatalf("victim = %#x dirty=%v, want %#x clean", victim, dirty, b)
	}
	if !c.probe(a) || !c.probe(d) || c.probe(b) {
		t.Fatal("wrong residency after eviction")
	}
	// Now evict the dirty line.
	c.probe(d)
	victim, dirty = c.fill(b, false)
	if victim != a || !dirty {
		t.Fatalf("victim = %#x dirty=%v, want %#x dirty", victim, dirty, a)
	}
}

func TestSourceRegsIncludeImplicitControlRegs(t *testing.T) {
	// Every vector operate must depend on vl; strided memory on vs; masked
	// execution on vm plus the merged destination.
	find := func(regs [6]isaReg, want isaReg) bool {
		for _, r := range regs {
			if r == want {
				return true
			}
		}
		return false
	}
	vv := mkInst(opVADDT)
	if !find(sourceRegs(&vv, vv.Info()), regVL) {
		t.Error("VV op must read vl")
	}
	sm := mkInst(opVLDQ)
	if !find(sourceRegs(&sm, sm.Info()), regVS) || !find(sourceRegs(&sm, sm.Info()), regVL) {
		t.Error("SM op must read vl and vs")
	}
	masked := mkInst(opVADDT)
	masked.Masked = true
	srcs := sourceRegs(&masked, masked.Info())
	if !find(srcs, regVM) {
		t.Error("masked op must read vm")
	}
	if !find(srcs, masked.Dst) {
		t.Error("masked op must merge through its old destination")
	}
	fma := mkInst(opVFMAT)
	if !find(sourceRegs(&fma, fma.Info()), fma.Dst) {
		t.Error("FMA must read its accumulator")
	}
}

func TestDestRegsForControlOps(t *testing.T) {
	if destRegs(&setvlInst, setvlInst.Info())[0] != regVL {
		t.Error("setvl writes vl")
	}
	if destRegs(&setvmInst, setvmInst.Info())[0] != regVM {
		t.Error("setvm writes vm")
	}
	if destRegs(&storeInst, storeInst.Info())[0].Valid() {
		t.Error("stores write no register")
	}
}
