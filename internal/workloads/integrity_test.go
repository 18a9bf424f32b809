package workloads

import (
	"testing"

	"repro/internal/sim"
)

// TestInvariantCheckerCleanAllWorkloads runs every registered benchmark at
// test scale under the microarchitectural invariant checker on the full
// Tarantula machine. A clean pass means the paper's workloads exercise no
// latent retire-order, store-queue or inclusion bug.
func TestInvariantCheckerCleanAllWorkloads(t *testing.T) {
	cfg := *sim.T()
	cfg.Check = true
	for _, name := range Names() {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Run(&cfg, Test); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestInvariantCheckerCleanScalarMachine repeats the drill on the EV8
// scalar-only machine for one L2-resident and one memory-bound kernel, the
// pair the CI smoke job also exercises, plus linpack100, whose stores keep
// the store-disambiguation table busy: the store-queue check reads it at
// every retiring store.
func TestInvariantCheckerCleanScalarMachine(t *testing.T) {
	cfg := *sim.EV8()
	cfg.Check = true
	for _, name := range []string{"dgemm", "streams_copy", "linpack100"} {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Run(&cfg, Test); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
