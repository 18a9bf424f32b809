package dse

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/sim"
)

// Cost is one design point's position in the three-objective space the
// paper trades against itself: delivered speedup (maximize) versus the
// Table 1 power model's watts and the Figure 5 die's mm² (both minimize).
type Cost struct {
	Speedup float64 `json:"speedup"`
	Watts   float64 `json:"watts"`
	MM2     float64 `json:"mm2"`
}

// Dominates reports whether a is weakly better than b on every objective
// and strictly better on at least one. Exact ties dominate nothing.
func (a Cost) Dominates(b Cost) bool {
	if a.Speedup < b.Speedup || a.Watts > b.Watts || a.MM2 > b.MM2 {
		return false
	}
	return a.Speedup > b.Speedup || a.Watts < b.Watts || a.MM2 < b.MM2
}

// Frontier returns the indices of the Pareto-optimal points, in input
// order: every point no other point dominates. Exact ties are all kept —
// two identical costs never dominate each other, so both stay on the
// frontier.
func Frontier(costs []Cost) []int {
	var front []int
	for i, c := range costs {
		dominated := false
		for j, d := range costs {
			if i != j && d.Dominates(c) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// Evaluate computes the static cost axes of a configuration: total watts
// from the §5 power model at the point's own clock, and die mm² from the
// Figure 5 floorplan. The speedup axis comes from simulation and is filled
// in by Rank.
func Evaluate(cfg *sim.Config) (watts, mm2 float64) {
	return power.EstimateFor(cfg).TotalWatts, floorplan.PlanFor(cfg).DieMM2
}

// Geomean returns the geometric mean of xs (the paper's cross-benchmark
// summary statistic). Empty or non-positive inputs yield 0.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Cell is one benchmark's outcome at one design point.
type Cell struct {
	Cycles uint64 `json:"cycles"`
	// Speedup is wall time relative to the declared baseline at each
	// machine's own clock: (baseCycles/baseGHz) / (cycles/GHz).
	Speedup float64 `json:"speedup"`
}

// Point is one ranked design point of a sweep.
type Point struct {
	Config   string             `json:"config"`
	Knobs    map[string]float64 `json:"knobs,omitempty"`
	Baseline bool               `json:"baseline,omitempty"`
	Benches  map[string]Cell    `json:"benches"`
	// Cost is the point's position in the objective space: geometric-mean
	// speedup across the benches, watts from the §5 power model, die mm²
	// from the Figure 5 floorplan.
	Cost       Cost `json:"cost"`
	OnFrontier bool `json:"on_frontier,omitempty"`
}

// Rank scores the simulated points of a canonical spec. cycles[0] holds the
// baseline's cycle count per bench and cycles[i+1] those of Expand()[i]; a
// point missing any of the spec's benches did not complete and is left out.
// The ranked points come back baseline first, then the grid in expansion
// order, together with the indices of the Pareto frontier among them (no
// member dominated on {speedup↑, watts↓, mm²↓}; exact ties all kept).
// Without a complete baseline there is nothing to normalize speedups
// against, and Rank fails.
func (s *Spec) Rank(cycles []map[string]uint64) ([]Point, []int, error) {
	grid := s.Expand()
	if len(cycles) != len(grid)+1 {
		return nil, nil, fmt.Errorf("rank: %d outcomes for %d points", len(cycles), len(grid)+1)
	}
	complete := func(got map[string]uint64) bool {
		for _, b := range s.Benches {
			if _, ok := got[b]; !ok {
				return false
			}
		}
		return true
	}
	if !complete(cycles[0]) {
		return nil, nil, fmt.Errorf("baseline %q did not complete: no reference to normalize speedups against", s.Baseline)
	}
	base := s.BaselineConfig()
	var points []Point
	var costs []Cost
	for i, got := range cycles {
		if !complete(got) {
			continue
		}
		p := Point{Config: base.Name, Baseline: i == 0, Benches: make(map[string]Cell, len(s.Benches))}
		cfg := base
		if i > 0 {
			p.Knobs = grid[i-1]
			var err error
			if cfg, err = s.Build(p.Knobs); err != nil {
				return nil, nil, err
			}
			p.Config = cfg.Name
		}
		speedups := make([]float64, 0, len(s.Benches))
		for _, b := range s.Benches {
			sp := 0.0
			if got[b] > 0 && cycles[0][b] > 0 {
				baseTime := float64(cycles[0][b]) / base.CPUGHz
				ptTime := float64(got[b]) / cfg.CPUGHz
				sp = baseTime / ptTime
			}
			speedups = append(speedups, sp)
			p.Benches[b] = Cell{Cycles: got[b], Speedup: sp}
		}
		watts, mm2 := Evaluate(cfg)
		p.Cost = Cost{Speedup: Geomean(speedups), Watts: watts, MM2: mm2}
		points = append(points, p)
		costs = append(costs, p.Cost)
	}
	frontier := Frontier(costs)
	for _, i := range frontier {
		points[i].OnFrontier = true
	}
	return points, frontier, nil
}
