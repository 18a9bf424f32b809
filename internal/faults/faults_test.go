package faults_test

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// runJittered executes one real benchmark under a fault campaign and returns
// its statistics; the workload layer (not a synthetic kernel) is used so the
// determinism contract is tested across every injection hook at once.
func runJittered(t *testing.T, fc *faults.Config) *stats.Stats {
	t.Helper()
	b, err := workloads.Get("streams_add")
	if err != nil {
		t.Fatal(err)
	}
	cfg := *sim.T()
	cfg.Faults = fc
	res, err := b.Run(&cfg, workloads.Test)
	if err != nil {
		t.Fatalf("jittered run failed: %v", err)
	}
	return res.Stats
}

// TestSameSeedSameStats is the harness's core contract: a fault campaign is
// a pure function of its seed, so two runs with the same seed must produce
// bit-identical statistics, and the perturbation must actually perturb.
func TestSameSeedSameStats(t *testing.T) {
	clean := runJittered(t, nil)
	a := runJittered(t, faults.Jitter(7))
	b := runJittered(t, faults.Jitter(7))
	c := runJittered(t, faults.Jitter(8))
	if *a != *b {
		t.Errorf("same seed diverged:\n  a: %+v\n  b: %+v", *a, *b)
	}
	if *a == *clean {
		t.Error("Jitter(7) left the statistics identical to a fault-free run; the campaign injected nothing")
	}
	if *a == *c {
		t.Error("seeds 7 and 8 produced identical statistics; the seed is not reaching the hash")
	}
}

// TestTargetsExactCells verifies the explicit cell list is an exact match.
func TestTargetsExactCells(t *testing.T) {
	fc := &faults.Config{Cells: []string{"streams_add@T"}}
	if !fc.Targets("streams_add@T") {
		t.Error("listed cell not targeted")
	}
	if fc.Targets("streams_copy@T") || fc.Targets("streams_add@EV8") {
		t.Error("unlisted cell targeted")
	}
}

// TestTargetsSeededSubset checks the seeded selection is deterministic and
// lands near the documented one-in-four rate.
func TestTargetsSeededSubset(t *testing.T) {
	fc := &faults.Config{Seed: 3}
	again := &faults.Config{Seed: 3}
	hit := 0
	for i := 0; i < 400; i++ {
		key := string(rune('a'+i%26)) + "@" + string(rune('A'+i%7))
		key += string(rune('0' + i/26%10))
		if fc.Targets(key) != again.Targets(key) {
			t.Fatalf("selection for %q not deterministic", key)
		}
		if fc.Targets(key) {
			hit++
		}
	}
	if hit < 50 || hit > 160 {
		t.Errorf("seeded selection hit %d/400 cells; want roughly 1 in 4", hit)
	}
	if (*faults.Config)(nil).Targets("x@T") {
		t.Error("nil campaign targeted a cell")
	}
}

// TestNilInjectorSafe proves every hook is callable through a nil injector —
// the components rely on this to avoid branching on the fault config.
func TestNilInjectorSafe(t *testing.T) {
	var i *faults.Injector
	if i.MemLatency(0, 1) != 0 || i.L2Latency(1) != 0 {
		t.Error("nil injector added latency")
	}
	if i.StallFUs(1) || i.StallVPorts(1) {
		t.Error("nil injector stalled a unit")
	}
	if i.Active() {
		t.Error("nil injector reports active")
	}
}

// TestKillWorker pins the out-of-process drill's selection rules: targeted
// cell only, first attempt only, nil-safe, and off unless armed.
func TestKillWorker(t *testing.T) {
	i := faults.New(faults.WorkerKiller("dgemm@T", "streams_copy@EV8"))
	if !i.KillWorker("dgemm@T", 0) || !i.KillWorker("streams_copy@EV8", 0) {
		t.Error("targeted cell not killed on first attempt")
	}
	if i.KillWorker("dgemm@T", 1) || i.KillWorker("dgemm@T", 2) {
		t.Error("retry attempt killed: the drill must prove recovery, not permanent denial")
	}
	if i.KillWorker("dgemm@EV8", 0) {
		t.Error("untargeted cell killed")
	}
	if (*faults.Injector)(nil).KillWorker("dgemm@T", 0) {
		t.Error("nil injector killed a worker")
	}
	// A campaign without WorkerKill never kills, even for targeted cells.
	j := faults.New(&faults.Config{Cells: []string{"dgemm@T"}})
	if j.KillWorker("dgemm@T", 0) {
		t.Error("unarmed campaign killed a worker")
	}
}

// TestKillStorm pins the storm escalation: targeted cells are killed on
// every attempt below the depth, untargeted cells never, and the plain
// drill's first-attempt-only rule is unchanged by an unarmed storm field.
func TestKillStorm(t *testing.T) {
	i := faults.New(faults.KillStorm(1, 3, "dgemm@T"))
	for attempt := 0; attempt < 3; attempt++ {
		if !i.KillWorker("dgemm@T", attempt) {
			t.Errorf("storm depth 3 spared attempt %d", attempt)
		}
	}
	if i.KillWorker("dgemm@T", 3) {
		t.Error("storm killed past its depth")
	}
	if i.KillWorker("dgemm@EV8", 0) {
		t.Error("storm killed an untargeted cell")
	}
	if (*faults.Injector)(nil).KillWorker("dgemm@T", 0) {
		t.Error("nil injector stormed")
	}
}

// TestDiskFaultHooks checks the service-layer hooks: nil-safe, off when
// unarmed, deterministic per (seed, operation order), and firing at roughly
// the configured rate.
func TestDiskFaultHooks(t *testing.T) {
	var nilInj *faults.Injector
	if nilInj.DiskReadError() || nilInj.DiskWriteError() || nilInj.TornWrite() {
		t.Error("nil injector faulted a disk op")
	}
	if off := faults.New(&faults.Config{Seed: 3}); off.DiskReadError() || off.DiskWriteError() || off.TornWrite() {
		t.Error("unarmed campaign faulted a disk op")
	}

	draw := func(seed int64) []bool {
		i := faults.New(faults.DiskChaos(seed))
		out := make([]bool, 0, 300)
		for n := 0; n < 100; n++ {
			out = append(out, i.DiskReadError(), i.DiskWriteError(), i.TornWrite())
		}
		return out
	}
	a, b, c := draw(11), draw(11), draw(12)
	same := true
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("same seed diverged at op %d", k)
		}
		if a[k] != c[k] {
			same = false
		}
	}
	if same {
		t.Error("seeds 11 and 12 drew identical fault sequences")
	}
	hits := 0
	for _, v := range a {
		if v {
			hits++
		}
	}
	// 25% nominal over 300 draws: accept a generous band, the contract is
	// "the campaign actually injects", not an exact rate.
	if hits < 30 || hits > 150 {
		t.Errorf("DiskChaos fired %d/300 ops, want within [30,150]", hits)
	}
}
