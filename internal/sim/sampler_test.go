package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faults"
)

// runSampledKernel runs the mixed scalar+vector kernel case on cfg and
// returns the chip for series inspection.
func runSampledKernel(t *testing.T, cfg *Config) *Chip {
	t.Helper()
	for _, c := range kernelCases() {
		if c.name == "mixed-scalar-vector" {
			return runSampledKernelWith(t, cfg, c)
		}
	}
	t.Fatal("mixed-scalar-vector kernel case missing")
	return nil
}

func runSampledKernelWith(t *testing.T, cfg *Config, c kernelCase) *Chip {
	t.Helper()
	chip, err := runOnChip(cfg, c.kernel)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return chip
}

// wedgeOnStorm provokes a watchdog wedge with a stall storm and returns the
// chip and its typed error.
func wedgeOnStorm(t *testing.T) (*Chip, *WedgeError) {
	t.Helper()
	cfg := *T()
	cfg.Faults = &faults.Config{StallStormFrom: 300}
	cfg.Watchdog = 30_000
	chip, err := runOnChip(&cfg, wedgeKernel)
	var w *WedgeError
	if !errors.As(err, &w) {
		t.Fatalf("err = %v (%T), want *WedgeError", err, err)
	}
	return chip, w
}

// TestSamplerSeriesShape: an armed sampler produces points on exact cycle
// boundaries with one gauge column per registered gauge, and the dump's
// gauge names are the registry's registration order.
func TestSamplerSeriesShape(t *testing.T) {
	cfg := *T()
	cfg.EnableSampling(500)
	chip := runSampledKernel(t, &cfg)
	d := chip.Series()
	if d == nil || len(d.Points) == 0 {
		t.Fatal("sampler armed but no points taken")
	}
	names := chip.Reg.GaugeNames()
	if len(d.Gauges) != len(names) {
		t.Fatalf("dump has %d gauge columns, registry has %d", len(d.Gauges), len(names))
	}
	for i, n := range names {
		if d.Gauges[i] != n {
			t.Fatalf("gauge column %d = %q, want %q", i, d.Gauges[i], n)
		}
	}
	var prev uint64
	for _, p := range d.Points {
		if p.Cycle%500 != 0 || p.Cycle <= prev {
			t.Fatalf("point at cycle %d: not on a 500-cycle boundary after %d", p.Cycle, prev)
		}
		prev = p.Cycle
		if len(p.Gauges) != len(names) {
			t.Fatalf("point has %d gauge values, want %d", len(p.Gauges), len(names))
		}
		if p.IPC < 0 {
			t.Fatalf("negative interval IPC %v", p.IPC)
		}
	}
}

// TestSamplerDoesNotPerturbCounters is the observation-only contract: the
// sampler must leave every counter bit-identical to an unsampled run.
func TestSamplerDoesNotPerturbCounters(t *testing.T) {
	for _, c := range kernelCases() {
		base := c.configs[0]
		plain := runK(t, base, c.kernel)
		cfg := *base
		cfg.EnableSampling(100)
		chip := runSampledKernelWith(t, &cfg, c)
		if *chip.Stats != *plain {
			t.Errorf("%s: sampling changed the statistics:\n  sampled: %+v\n  plain:   %+v",
				c.name, *chip.Stats, *plain)
		}
	}
}

// TestWedgeOccupancyCoversEveryGauge is the registry-backed wedge snapshot
// guarantee: every occupancy gauge a component registered appears, by name,
// in the WedgeError text, grouped under its component namespace. A gauge
// added to any component can never be silently missing from wedge reports.
func TestWedgeOccupancyCoversEveryGauge(t *testing.T) {
	chip, w := wedgeOnStorm(t)
	gauges := chip.Reg.Gauges()
	if len(gauges) == 0 {
		t.Fatal("registry has no gauges — components did not register occupancy probes")
	}
	if len(w.Occ) != len(gauges) {
		t.Fatalf("Occ has %d samples, registry has %d gauges", len(w.Occ), len(gauges))
	}
	msg := w.Error()
	for _, g := range gauges {
		comp, metric, ok := strings.Cut(g.Name, ".")
		if !ok {
			t.Fatalf("gauge %q is not namespaced", g.Name)
		}
		if !strings.Contains(msg, metric+"=") {
			t.Errorf("gauge %s missing from wedge report: %q", g.Name, msg)
		}
		if !strings.Contains(msg, comp+"[") {
			t.Errorf("component group %s[ missing from wedge report: %q", comp, msg)
		}
	}
}
