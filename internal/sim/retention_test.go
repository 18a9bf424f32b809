package sim

import (
	"runtime"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// finalized reports whether done closes within a bounded number of GC
// rounds. A finalizer runs on its own goroutine after the cycle that found
// its object unreachable, so each round yields to let it run.
func finalized(done <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		runtime.Gosched()
		select {
		case <-done:
			return true
		default:
		}
	}
	return false
}

// TestKeptStatsDoNotPinTheChip: a caller that keeps only a finished run's
// statistics, as the tables memo and the serve job table do, must not keep
// the chip. Every component registers gauge closures over itself with the
// chip's registry, so a *stats.Stats pointing into the registry would keep
// the registry, and through it the whole machine and its L2 tag store,
// alive for as long as the statistics.
func TestKeptStatsDoNotPinTheChip(t *testing.T) {
	chipFreed := make(chan struct{})
	regFreed := make(chan struct{})
	kept := func() *stats.Stats {
		out := execute(t, RunSpec{Config: T(), Kernel: kernelCases()[1].kernel})
		// The components close over themselves (bound callbacks), and a
		// finalizer on an object in a cycle never runs, so the machine is
		// observed through the two objects that hold it and are in no
		// cycle: the Chip and the registry.
		runtime.SetFinalizer(out.Chip, func(*Chip) { close(chipFreed) })
		runtime.SetFinalizer(out.Chip.Reg, func(*metrics.Registry) { close(regFreed) })
		return out.Stats
	}()
	if !finalized(chipFreed) {
		t.Error("the kept Stats keep the Chip alive")
	}
	if !finalized(regFreed) {
		t.Error("the kept Stats keep the chip's registry, and the components its gauges read, alive")
	}
	if kept.VectorIns == 0 {
		t.Fatal("the kept Stats lost their counters")
	}
}
