// The checkpoint/fork A/B guard lives in an external test package: it
// drives real paper workloads (workloads imports sim) and compares artifacts
// with the serve encoding (serve imports workloads).
package sim_test

import (
	"encoding/json"
	"testing"

	"repro/internal/isa"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vasm"
	"repro/internal/workloads"
)

// synthSetup is a warm-up phase for benchmarks that do not define one: a
// scalar prefetch walk over a fixed window. Any deterministic kernel works
// here — the A/B test only needs a post-Setup boundary to snapshot at, and
// the walk perturbs cache and predictor state enough that a restore which
// dropped state would show up in the ROI statistics.
func synthSetup(workloads.Scale, bool) vasm.Kernel {
	return func(b *vasm.Builder) {
		b.Li(isa.R(1), 1<<20)
		b.Loop(isa.R(16), 256, func(int) {
			b.Prefetch(isa.R(1), 0)
			b.AddImm(isa.R(1), isa.R(1), 64)
		})
	}
}

// runAB executes bench on cfg twice — straight (capturing the post-Setup
// snapshot) and restored from that snapshot — and requires the region of
// interest to be bit-identical: every counter, the final clock, and the
// serve artifact encoding.
func runAB(t *testing.T, bench *workloads.Benchmark, cfg *sim.Config) {
	t.Helper()
	var blob []byte
	var atCycle uint64
	straight, err := bench.RunOpt(cfg, workloads.Test, workloads.RunOpts{
		OnWarmupSnapshot: func(cy uint64, b []byte) { atCycle, blob = cy, b },
	})
	if err != nil {
		t.Fatalf("straight run: %v", err)
	}
	if blob == nil {
		t.Fatal("warm-up snapshot was not captured")
	}
	if atCycle == 0 || atCycle != straight.WarmupCycles {
		t.Fatalf("snapshot cycle %d, straight run reports warm-up boundary %d", atCycle, straight.WarmupCycles)
	}
	restored, err := bench.RunOpt(cfg, workloads.Test, workloads.RunOpts{WarmupSnapshot: blob})
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	if !restored.WarmupRestored || restored.WarmupCycles != atCycle {
		t.Fatalf("restored run reports restored=%v boundary=%d, want true/%d",
			restored.WarmupRestored, restored.WarmupCycles, atCycle)
	}
	if *straight.Stats != *restored.Stats {
		t.Errorf("restore changed the ROI statistics:\n  straight: %+v\n  restored: %+v",
			*straight.Stats, *restored.Stats)
	}
	if straight.SimCycles != restored.SimCycles {
		t.Errorf("restore changed the final clock: straight %d, restored %d",
			straight.SimCycles, restored.SimCycles)
	}
	aj, err := json.Marshal(serve.EncodeResult("ab", straight))
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(serve.EncodeResult("ab", restored))
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.CompareArtifacts(aj, bj); err != nil {
		t.Errorf("serve artifacts differ across restore: %v", err)
	}
}

// TestSnapshotRestoreABMatrix covers every Table 4 microkernel: snapshot at
// the post-Setup boundary, restore into a fresh chip, run to completion, and
// require bit-identity with the straight run. Benchmarks without a warm-up
// phase get a synthesized one so each kernel still crosses a snapshot
// boundary.
func TestSnapshotRestoreABMatrix(t *testing.T) {
	kernels := []string{
		"streams_copy", "streams_scale", "streams_add", "streams_triadd",
		"rndcopy", "rndmemscale",
	}
	for _, name := range kernels {
		b, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		bench := *b
		if bench.Setup == nil {
			bench.Setup = synthSetup
		}
		t.Run(name, func(t *testing.T) {
			runAB(t, &bench, sim.T())
		})
	}
}

// TestSnapshotRestoreScalarConfig runs the A/B check on a Vbox-less
// configuration, covering the snapshot layout branch without vector state.
func TestSnapshotRestoreScalarConfig(t *testing.T) {
	b, err := workloads.Get("rndcopy")
	if err != nil {
		t.Fatal(err)
	}
	runAB(t, b, sim.EV8())
}
