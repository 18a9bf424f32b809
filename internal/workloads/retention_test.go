package workloads

import (
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vasm"
)

// liveHeap returns the heap bytes still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestKeptResultsDoNotPinChips: keeping a finished run's Result must keep
// its statistics, not the chip behind them. Results are kept by the
// thousand (the tables memo, the serve job table), and a T chip's L2 alone
// is megabytes, so a Result that pinned its chip would grow the live heap by
// far more than the 1 MiB this test allows for eight of them. The kernel's
// own data is a few KiB.
func TestKeptResultsDoNotPinChips(t *testing.T) {
	b := &Benchmark{
		Name: "retention",
		Vector: func(Scale) vasm.Kernel {
			return func(b *vasm.Builder) {
				base := b.AllocF64(1024, 0)
				b.Li(isa.R(1), int64(base))
				b.SetVLImm(isa.R(9), 128)
				for i := 0; i < 8; i++ {
					b.VLdQ(isa.V(1), isa.R(1), int64(i*1024))
					b.VV(isa.OpVADDT, isa.V(2), isa.V(1), isa.V(1))
					b.VStQ(isa.V(2), isa.R(1), int64(i*1024))
				}
				b.Halt()
			}
		},
	}
	run := func() *Result {
		res, err := b.Run(sim.T(), Test)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run() // fills package-level caches (the schedule ROM) before measuring
	before := liveHeap()
	kept := make([]*Result, 8)
	for i := range kept {
		kept[i] = run()
	}
	grown := int64(liveHeap()) - int64(before)
	t.Logf("keeping %d Results grew the live heap by %d bytes", len(kept), grown)
	if grown > 1<<20 {
		t.Errorf("keeping %d Results grew the live heap by %d KiB", len(kept), grown>>10)
	}
	for _, r := range kept {
		if r.Stats.VectorIns == 0 {
			t.Fatal("a kept Result lost its statistics")
		}
	}
}
