package dse

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// MaxPoints bounds one sweep's grid (before baselines): a runaway spec is
// refused before it submits a single job.
const MaxPoints = 4096

// Axis is one swept dimension: either an explicit value list or an
// inclusive arithmetic range. Canonicalize expands ranges into values, so a
// stored canonical spec always carries explicit grids.
type Axis struct {
	Values []float64 `json:"values,omitempty"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
	Step   float64   `json:"step,omitempty"`
}

// Spec describes one sweep: a base machine, a declared baseline, a
// benchmark set and the knob axes to sweep. Its canonical form (sorted
// deduplicated benches, ranges expanded to sorted value lists) makes two
// specs that describe the same grid in different words expand to the same
// points, and so to the same jobs and content keys.
type Spec struct {
	// Config names the base machine the knobs perturb (default "T").
	Config string `json:"config,omitempty"`
	// Baseline names the unmodified machine speedups are measured against
	// (default: the base config itself).
	Baseline string          `json:"baseline,omitempty"`
	Benches  []string        `json:"benches"`
	Scale    string          `json:"scale,omitempty"`
	Axes     map[string]Axis `json:"axes"`
}

// Canonicalize validates the spec against the simulator's vocabulary and
// rewrites it into canonical form in place: defaults applied, benches sorted
// and deduplicated, ranges expanded into sorted explicit value lists, every
// knob name and value checked against the registry and the base config.
// Errors name the offending field so they can be surfaced as bad_request
// envelopes verbatim.
func (s *Spec) Canonicalize() error {
	if s.Config == "" {
		s.Config = "T"
	}
	base := sim.ByName(s.Config)
	if base == nil {
		return fmt.Errorf("unknown config %q (have %v)", s.Config, sim.Names())
	}
	if s.Baseline == "" {
		s.Baseline = s.Config
	}
	if sim.ByName(s.Baseline) == nil {
		return fmt.Errorf("unknown baseline %q (have %v)", s.Baseline, sim.Names())
	}
	if len(s.Benches) == 0 {
		return fmt.Errorf("benches: at least one benchmark required (have %v)", workloads.Names())
	}
	seen := map[string]bool{}
	benches := s.Benches[:0]
	for _, b := range s.Benches {
		if _, err := workloads.Get(b); err != nil {
			return fmt.Errorf("benches: %v", err)
		}
		if !seen[b] {
			seen[b] = true
			benches = append(benches, b)
		}
	}
	sort.Strings(benches)
	s.Benches = benches
	if s.Scale == "" {
		s.Scale = "bench"
	}
	if _, err := workloads.ParseScale(s.Scale); err != nil {
		return fmt.Errorf("scale: %v", err)
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("axes: at least one knob axis required (have %s)", strings.Join(KnobNames(), ", "))
	}
	total := 1
	for name, ax := range s.Axes {
		k, ok := knobByName(name)
		if !ok {
			return fmt.Errorf("unknown knob %q (have %s)", name, strings.Join(KnobNames(), ", "))
		}
		vals := ax.Values
		if len(vals) == 0 {
			if ax.Step <= 0 || ax.Max < ax.Min {
				return fmt.Errorf("knob %q: range needs min ≤ max and step > 0", name)
			}
			for v := ax.Min; v <= ax.Max+1e-9; v += ax.Step {
				vals = append(vals, v)
			}
		}
		sort.Float64s(vals)
		uniq := vals[:0]
		for i, v := range vals {
			if err := k.validate(v); err != nil {
				return err
			}
			if k.VectorOnly && !base.HasVbox {
				return fmt.Errorf("knob %q: requires a vector configuration (base %q has no Vbox)", name, s.Config)
			}
			if i == 0 || v != uniq[len(uniq)-1] {
				uniq = append(uniq, v)
			}
		}
		s.Axes[name] = Axis{Values: uniq}
		total *= len(uniq)
		if total > MaxPoints {
			return fmt.Errorf("axes: grid exceeds %d points", MaxPoints)
		}
	}
	return nil
}

// axisNames returns the swept knob names in canonical (sorted) order.
func (s *Spec) axisNames() []string {
	names := make([]string, 0, len(s.Axes))
	for name := range s.Axes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Expand enumerates the grid points of a canonical spec in deterministic
// odometer order: axes sorted by name, the last axis varying fastest. The
// same spec always yields the same point sequence — and therefore the same
// confhash sequence — which is what makes sweep resume and deduplication
// sound.
func (s *Spec) Expand() []map[string]float64 {
	names := s.axisNames()
	if len(names) == 0 {
		return []map[string]float64{{}}
	}
	var points []map[string]float64
	idx := make([]int, len(names))
	for {
		pt := make(map[string]float64, len(names))
		for i, name := range names {
			pt[name] = s.Axes[name].Values[idx[i]]
		}
		points = append(points, pt)
		i := len(names) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s.Axes[names[i]].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return points
		}
	}
}

// Build applies one grid point's knobs to a fresh copy of the base config.
func (s *Spec) Build(settings map[string]float64) (*sim.Config, error) {
	cfg := sim.ByName(s.Config)
	if cfg == nil {
		return nil, fmt.Errorf("unknown config %q (have %v)", s.Config, sim.Names())
	}
	if err := Apply(cfg, settings); err != nil {
		return nil, err
	}
	return cfg, nil
}

// BaselineConfig returns the declared baseline machine, unmodified.
func (s *Spec) BaselineConfig() *sim.Config { return sim.ByName(s.Baseline) }
