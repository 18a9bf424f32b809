// Package dse is the design-space-exploration library: a vocabulary of
// sweepable machine knobs, deterministic grid expansion of sweep specs, and
// Pareto-frontier ranking over {speedup, watts, mm²}. A sweep is just jobs:
// a spec names knob axes, dse expands them into concrete points, the client
// (tarload -sweep) submits each point × bench as an ordinary tarserved job —
// so the job service's confhash dedup and result store make every unique
// configuration cost one simulation — and Rank scores the completed points
// on the three cost axes the paper trades against each other: the §6
// speedups, the Table 1 power model, and the Figure 5 die.
//
// Knobs are deliberately restricted to parameters that are (a) visible to
// confhash, so swept points get distinct content addresses, and (b) honest
// inputs of the timing model. Two paper parameters are intentionally NOT
// sweepable: MVL (isa.VLMax is an architectural constant baked into register
// array types at compile time) and SMT thread count (a workload mode, not a
// machine knob of the Benchmark.Run interface).
package dse

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// perPortGBs is the RAMBUS per-port bandwidth the Table 3 machines share:
// 66.6 GB/s over eight ports. When a sweep changes the port count or the CPU
// clock, the Zbox timing is rebuilt holding this per-port rate fixed, exactly
// as the paper scales its memory system.
const perPortGBs = 66.6 / 8

// Knob describes one sweepable axis of the machine-configuration space.
type Knob struct {
	Name string `json:"name"`
	// Type is "int", "float" or "bool" (bool values are 0/1 on the wire).
	Type string  `json:"type"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// PowerOfTwo marks knobs whose legal values are powers of two (cache
	// geometry uses mask indexing; lanes and ports come in binary groups).
	PowerOfTwo bool `json:"power_of_two,omitempty"`
	// VectorOnly knobs require a base configuration with a Vbox.
	VectorOnly bool   `json:"vector_only,omitempty"`
	Doc        string `json:"doc"`
}

// knobs is the registry, in sorted-name order (the canonical axis order of
// every sweep expansion).
var knobs = []Knob{
	{Name: "clock_ghz", Type: "float", Min: 1.0, Max: 12.0,
		Doc: "CPU clock in GHz; memory timing is rebuilt at the matching RAMBUS ratio (Figure 8 axis)"},
	{Name: "l2_kb", Type: "int", Min: 1024, Max: 65536, PowerOfTwo: true,
		Doc: "L2 capacity in KB (16384 = the paper's 16 MB)"},
	{Name: "lanes", Type: "int", Min: 2, Max: 64, PowerOfTwo: true, VectorOnly: true,
		Doc: "Vbox vector lanes (16 in the paper)"},
	{Name: "phys_vregs", Type: "int", Min: 40, Max: 1024, VectorOnly: true,
		Doc: "physical vector registers: 32 architected + rename copies (128 in the paper)"},
	{Name: "pump", Type: "bool", Min: 0, Max: 1, VectorOnly: true,
		Doc: "stride-1 double-bandwidth pump mode (the Figure 9 ablation)"},
	{Name: "zbox_ports", Type: "int", Min: 1, Max: 16, PowerOfTwo: true,
		Doc: "RAMBUS controller ports at 8.325 GB/s each (8 in the paper)"},
}

// Knobs returns the sweepable-knob registry in canonical (sorted-name)
// order. The slice is a copy; callers may not mutate the registry.
func Knobs() []Knob {
	out := make([]Knob, len(knobs))
	copy(out, knobs)
	return out
}

// KnobNames returns the sorted legal axis names (for error messages and the
// /v1/sweeps/knobs endpoint).
func KnobNames() []string {
	names := make([]string, len(knobs))
	for i, k := range knobs {
		names[i] = k.Name
	}
	return names
}

func knobByName(name string) (Knob, bool) {
	for _, k := range knobs {
		if k.Name == name {
			return k, true
		}
	}
	return Knob{}, false
}

// validate checks one value against the knob's type and range. The error
// names the knob so the serving layer can surface it verbatim as a
// bad_request envelope.
func (k Knob) validate(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("knob %q: value must be finite", k.Name)
	}
	if k.Type != "float" && v != math.Trunc(v) {
		return fmt.Errorf("knob %q: value %v must be an integer", k.Name, v)
	}
	if v < k.Min || v > k.Max {
		return fmt.Errorf("knob %q: value %v outside legal range [%g, %g]", k.Name, v, k.Min, k.Max)
	}
	if k.PowerOfTwo {
		n := int(v)
		if n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("knob %q: value %v must be a power of two", k.Name, v)
		}
	}
	return nil
}

// Apply mutates cfg in place with the given knob settings, validating every
// name and value, and renames the config with a deterministic knob suffix
// (presentation only — the display name is outside the confhash identity).
// Changing the port count or the clock rebuilds the Zbox timing at the fixed
// per-port RAMBUS bandwidth, so swept memory systems stay self-consistent.
func Apply(cfg *sim.Config, settings map[string]float64) error {
	names := make([]string, 0, len(settings))
	for name := range settings {
		names = append(names, name)
	}
	sort.Strings(names)
	rebuildZbox := false
	for _, name := range names {
		k, ok := knobByName(name)
		if !ok {
			return fmt.Errorf("unknown knob %q (have %s)", name, strings.Join(KnobNames(), ", "))
		}
		v := settings[name]
		if err := k.validate(v); err != nil {
			return err
		}
		if k.VectorOnly && !cfg.HasVbox {
			return fmt.Errorf("knob %q: requires a vector configuration (base %q has no Vbox)", name, cfg.Name)
		}
		switch name {
		case "clock_ghz":
			cfg.CPUGHz = v
			rebuildZbox = true
		case "l2_kb":
			cfg.L2.Bytes = int(v) << 10
		case "lanes":
			cfg.Vbox.Lanes = int(v)
		case "phys_vregs":
			cfg.Vbox.PhysVRegs = int(v)
		case "pump":
			cfg.Vbox.PumpEnabled = v != 0
		case "zbox_ports":
			cfg.Zbox.Ports = int(v)
			rebuildZbox = true
		}
	}
	if rebuildZbox {
		cfg.Zbox = sim.ZboxAt(cfg.Zbox.Ports, float64(cfg.Zbox.Ports)*perPortGBs, cfg.CPUGHz)
	}
	if len(names) > 0 {
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = name + "=" + strconv.FormatFloat(settings[name], 'g', -1, 64)
		}
		cfg.Name = cfg.Name + "/" + strings.Join(parts, ",")
	}
	return nil
}
