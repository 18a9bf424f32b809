package sim

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vasm"
)

func TestVectorPortOccupancy(t *testing.T) {
	// 64 independent vector adds, vl=128: two ports × 8-cycle occupancy
	// bounds the region at ≥ 64*8/2 = 256 cycles; massive slack would mean
	// the ⌈vl/16⌉ occupancy isn't modeled.
	st := runK(t, T(), func(b *vasm.Builder) {
		for i := 0; i < 64; i++ {
			b.VV(isa.OpVADDQ, isa.V(i%8), isa.V(8+i%8), isa.V(16+i%8))
		}
		b.Halt()
	})
	if st.Cycles < 256 {
		t.Fatalf("64 vl=128 adds finished in %d cycles — ports are over-issuing", st.Cycles)
	}
	if st.Cycles > 400 {
		t.Fatalf("64 independent adds took %d cycles — dual issue missing", st.Cycles)
	}
}

func TestShortVectorsOccupyLess(t *testing.T) {
	run := func(vl int) uint64 {
		st := runK(t, T(), func(b *vasm.Builder) {
			b.SetVLImm(isa.R(9), vl)
			for i := 0; i < 64; i++ {
				b.VV(isa.OpVADDQ, isa.V(i%8), isa.V(8+i%8), isa.V(16+i%8))
			}
			b.Halt()
		})
		return st.Cycles
	}
	long, short := run(128), run(16)
	if short >= long/2 {
		t.Fatalf("vl=16 (%d cy) should be far cheaper than vl=128 (%d cy) on the ports", short, long)
	}
}

func TestUnpipelinedDivideHoldsPort(t *testing.T) {
	div := runK(t, T(), func(b *vasm.Builder) {
		for i := 0; i < 8; i++ {
			b.VV(isa.OpVDIVT, isa.V(1), isa.V(2), isa.V(3))
		}
		b.Halt()
	})
	add := runK(t, T(), func(b *vasm.Builder) {
		for i := 0; i < 8; i++ {
			b.VV(isa.OpVADDT, isa.V(1), isa.V(2), isa.V(3))
		}
		b.Halt()
	})
	if div.Cycles < 4*add.Cycles {
		t.Fatalf("divides (%d cy) should be far slower than adds (%d cy)", div.Cycles, add.Cycles)
	}
}

func TestChainingWaitsForFullVector(t *testing.T) {
	// A load followed by a dependent add: the add cannot start until every
	// element returned (the §3.4 consequence of out-of-order slices), so
	// the dependent pair must cost at least the full load latency.
	st := runK(t, T(), func(b *vasm.Builder) {
		b.Li(isa.R(1), 1<<20)
		b.SetVSImm(isa.R(9), 16) // stride-2: reorder path, 8 slices
		b.VLdQ(isa.V(0), isa.R(1), 0)
		b.VV(isa.OpVADDT, isa.V(1), isa.V(0), isa.V(0))
		b.Halt()
	})
	// 8 AG cycles + 8 slices + 38 load-to-use + 8 occupancy + latency.
	if st.Cycles < 55 {
		t.Fatalf("dependent load→add completed in %d cycles — chaining too eager", st.Cycles)
	}
}

func TestSelfConflictingStrideIsSlow(t *testing.T) {
	run := func(strideBytes int64) uint64 {
		st := runK(t, T(), func(b *vasm.Builder) {
			b.Li(isa.R(1), 1<<20)
			b.SetVSImm(isa.R(9), strideBytes)
			for i := 0; i < 8; i++ {
				b.VLdQ(isa.V(0), isa.R(1), 0)
				b.AddImm(isa.R(1), isa.R(1), 64)
			}
			b.Halt()
		})
		return st.Cycles
	}
	odd := run(24)        // σ=3: conflict-free reordering
	selfc := run(128 * 8) // 2^7 quadwords: every address on one bank
	if selfc < 4*odd {
		t.Fatalf("self-conflicting stride (%d cy) should be much slower than odd stride (%d cy)",
			selfc, odd)
	}
}

func TestShortStridedVectorStillPaysEightAGCycles(t *testing.T) {
	// §3.4: vl < 128 still pays the full 8 address-generation cycles on
	// the reorder path, so back-to-back short strided loads can't beat a
	// ~8-cycle cadence.
	st := runK(t, T(), func(b *vasm.Builder) {
		b.Li(isa.R(1), 1<<20)
		b.SetVSImm(isa.R(9), 16)
		b.SetVLImm(isa.R(9), 8)
		for i := 0; i < 32; i++ {
			b.VLdQ(isa.V(0), isa.R(1), 0)
			b.AddImm(isa.R(1), isa.R(1), 4096)
		}
		b.Halt()
	})
	if st.Cycles < 32*8 {
		t.Fatalf("32 short strided loads took %d cycles; 8 AG cycles each means ≥256", st.Cycles)
	}
}

func TestDrainMWaitsForWriteBuffer(t *testing.T) {
	with := runK(t, T(), func(b *vasm.Builder) {
		b.Li(isa.R(1), 1<<20)
		for i := 0; i < 16; i++ {
			b.StQ(isa.R(2), isa.R(1), int64(i*64))
		}
		b.DrainM()
		b.VLdQ(isa.V(0), isa.R(1), 0)
		b.Halt()
	})
	without := runK(t, T(), func(b *vasm.Builder) {
		b.Li(isa.R(1), 1<<20)
		for i := 0; i < 16; i++ {
			b.StQ(isa.R(2), isa.R(1), int64(i*64))
		}
		b.VLdQ(isa.V(0), isa.R(1), 0)
		b.Halt()
	})
	if with.DrainMs != 1 {
		t.Fatalf("DrainM count = %d", with.DrainMs)
	}
	if with.Cycles <= without.Cycles {
		t.Fatalf("DrainM (%d cy) must cost more than no barrier (%d cy)", with.Cycles, without.Cycles)
	}
}

func TestPBitInvalidateOnScalarThenVector(t *testing.T) {
	st := runK(t, T(), func(b *vasm.Builder) {
		b.Li(isa.R(1), 1<<20)
		b.LdQ(isa.R(2), isa.R(1), 0) // scalar touch: L1 fill sets the P-bit
		b.DrainM()
		b.VLdQ(isa.V(0), isa.R(1), 0) // vector read of the same lines
		b.Halt()
	})
	if st.L2PBitInvalidates == 0 {
		t.Fatal("vector touch of an L1-resident line must invalidate")
	}
}

func TestVectorTLBMissAndRefill(t *testing.T) {
	// Gathers touching many distinct 512 MB pages force per-lane TLB
	// misses and PAL refills.
	st := runK(t, T(), func(b *vasm.Builder) {
		for i := 0; i < isa.VLMax; i++ {
			b.M.V[1][i] = uint64(i) << 29 // one page per element
		}
		b.Li(isa.R(1), 0)
		b.VGath(isa.V(0), isa.V(1), isa.R(1))
		b.Halt()
	})
	if st.TLBMisses == 0 || st.TLBRefills == 0 {
		t.Fatalf("TLB misses=%d refills=%d, want >0", st.TLBMisses, st.TLBRefills)
	}
}

func TestTLBMissesSquashedOnPrefetch(t *testing.T) {
	st := runK(t, T(), func(b *vasm.Builder) {
		for i := 0; i < isa.VLMax; i++ {
			b.M.V[1][i] = uint64(i+200) << 29
		}
		b.Li(isa.R(1), 0)
		b.VGathPref(isa.V(1), isa.R(1)) // prefetch: faults ignored (§2)
		b.Halt()
	})
	if st.TLBMisses != 0 {
		t.Fatalf("prefetch TLB misses = %d, want 0 (squashed)", st.TLBMisses)
	}
}

func TestBranchMispredictCharged(t *testing.T) {
	// Data-dependent alternating branches vs a stable loop branch.
	alternating := runK(t, EV8(), func(b *vasm.Builder) {
		site := b.Site()
		for i := 0; i < 400; i++ {
			b.OpImm(isa.OpADDQ, isa.R(1), isa.RZero, int64(i%2))
			b.EmitAt(isa.Inst{Op: isa.OpBNE, Src1: isa.R(1), Imm: 1}, site)
		}
		b.Halt()
	})
	stable := runK(t, EV8(), func(b *vasm.Builder) {
		b.Loop(isa.R(16), 400, func(int) {
			b.OpImm(isa.OpADDQ, isa.R(1), isa.R(1), 1)
		})
		b.Halt()
	})
	if alternating.BranchMispredicts < 100 {
		t.Fatalf("alternating mispredicts = %d", alternating.BranchMispredicts)
	}
	if stable.BranchMispredicts > 3 {
		t.Fatalf("loop branch mispredicts = %d", stable.BranchMispredicts)
	}
	if alternating.Cycles < 2*stable.Cycles {
		t.Fatalf("mispredicted code (%d cy) should be much slower than predicted (%d cy)",
			alternating.Cycles, stable.Cycles)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	st := runK(t, EV8(), func(b *vasm.Builder) {
		b.Li(isa.R(1), 1<<20)
		b.Li(isa.R(2), 42)
		for i := 0; i < 100; i++ {
			b.StQ(isa.R(2), isa.R(1), 0)
			b.LdQ(isa.R(3), isa.R(1), 0) // forwarded, never misses
		}
		b.Halt()
	})
	if st.L1Misses > 2 {
		t.Fatalf("forwarded loads missed the L1 %d times", st.L1Misses)
	}
	if st.Cycles > 1000 {
		t.Fatalf("forwarding chain took %d cycles", st.Cycles)
	}
}

func TestEV8PlusMatchesTOnScalarCode(t *testing.T) {
	k := func(b *vasm.Builder) {
		b.Li(isa.R(1), 1<<20)
		b.Loop(isa.R(16), 2000, func(int) {
			b.LdT(isa.F(1), isa.R(1), 0)
			b.Op3(isa.OpADDT, isa.F(2), isa.F(2), isa.F(1))
			b.AddImm(isa.R(1), isa.R(1), 8)
		})
		b.Halt()
	}
	stP := runK(t, EV8Plus(), k)
	stT := runK(t, T(), k)
	// A pure scalar kernel should behave nearly identically on EV8+ and T
	// (T's scalar L2 latency is higher; that's the only difference).
	ratio := float64(stT.Cycles) / float64(stP.Cycles)
	if ratio < 0.9 || ratio > 2.0 {
		t.Fatalf("scalar code on T vs EV8+: ratio %.2f (T=%d, EV8+=%d)", ratio, stT.Cycles, stP.Cycles)
	}
}

func TestOperandBusLimitsVSIssue(t *testing.T) {
	// VS ops need a scalar operand over the two buses; VV ops do not. A
	// burst of VS ops can sustain at most 2 issues/cycle of bus traffic.
	st := runK(t, T(), func(b *vasm.Builder) {
		for i := 0; i < 64; i++ {
			b.VS(isa.OpVSADDT, isa.V(i%8), isa.V(8+i%8), isa.F(1))
		}
		b.Halt()
	})
	if st.VSBusTransfers != 64 {
		t.Fatalf("operand-bus transfers = %d, want 64", st.VSBusTransfers)
	}
}
