package dse

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/confhash"
	"repro/internal/sim"
)

func grid2x2() *Spec {
	return &Spec{
		Benches: []string{"dgemm", "fft"},
		Scale:   "test",
		Axes: map[string]Axis{
			"lanes": {Values: []float64{8, 16}},
			"l2_kb": {Values: []float64{4096, 16384}},
		},
	}
}

func TestCanonicalizeDefaultsAndSorting(t *testing.T) {
	s := &Spec{
		Benches: []string{"fft", "dgemm", "fft"},
		Axes:    map[string]Axis{"lanes": {Values: []float64{16, 8, 16}}},
	}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if s.Config != "T" || s.Baseline != "T" || s.Scale != "bench" {
		t.Errorf("defaults: config=%q baseline=%q scale=%q", s.Config, s.Baseline, s.Scale)
	}
	if !reflect.DeepEqual(s.Benches, []string{"dgemm", "fft"}) {
		t.Errorf("benches not sorted+deduped: %v", s.Benches)
	}
	if !reflect.DeepEqual(s.Axes["lanes"].Values, []float64{8, 16}) {
		t.Errorf("axis not sorted+deduped: %v", s.Axes["lanes"].Values)
	}
}

func TestCanonicalizeExpandsRanges(t *testing.T) {
	s := &Spec{
		Benches: []string{"dgemm"},
		Axes:    map[string]Axis{"clock_ghz": {Min: 2, Max: 4, Step: 1}},
	}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Axes["clock_ghz"].Values, []float64{2, 3, 4}) {
		t.Errorf("range expansion: %v", s.Axes["clock_ghz"].Values)
	}
}

func TestCanonicalizeRejections(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		want string // substring the error must carry (field naming)
	}{
		{"unknown knob", &Spec{Benches: []string{"dgemm"},
			Axes: map[string]Axis{"mvl": {Values: []float64{128}}}}, `unknown knob "mvl"`},
		{"bad range", &Spec{Benches: []string{"dgemm"},
			Axes: map[string]Axis{"lanes": {Values: []float64{12}}}}, `knob "lanes"`},
		{"out of range", &Spec{Benches: []string{"dgemm"},
			Axes: map[string]Axis{"clock_ghz": {Values: []float64{99}}}}, `knob "clock_ghz"`},
		{"vector knob on scalar", &Spec{Config: "EV8", Benches: []string{"dgemm"},
			Axes: map[string]Axis{"lanes": {Values: []float64{8}}}}, `knob "lanes"`},
		{"unknown bench", &Spec{Benches: []string{"nope"},
			Axes: map[string]Axis{"lanes": {Values: []float64{8}}}}, "benches"},
		{"unknown config", &Spec{Config: "EV9", Benches: []string{"dgemm"},
			Axes: map[string]Axis{"lanes": {Values: []float64{8}}}}, `unknown config "EV9"`},
		{"no axes", &Spec{Benches: []string{"dgemm"}}, "axes"},
		{"no benches", &Spec{Axes: map[string]Axis{"lanes": {Values: []float64{8}}}}, "benches"},
		{"too many points", &Spec{Benches: []string{"dgemm"},
			Axes: map[string]Axis{"clock_ghz": {Min: 1, Max: 12, Step: 0.001}}}, "exceeds"},
	}
	for _, c := range cases {
		err := c.spec.Canonicalize()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the field (%q)", c.name, err, c.want)
		}
	}
}

// TestExpandDeterministic pins the determinism contract: the same spec
// expands to the same point order, and the built configs hash to the same
// confhash sequence, across repeated expansions.
func TestExpandDeterministic(t *testing.T) {
	s := grid2x2()
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	pts := s.Expand()
	if len(pts) != 4 {
		t.Fatalf("2x2 grid expanded to %d points", len(pts))
	}
	// Odometer order: sorted axes (l2_kb, lanes), last axis fastest.
	want := []map[string]float64{
		{"l2_kb": 4096, "lanes": 8},
		{"l2_kb": 4096, "lanes": 16},
		{"l2_kb": 16384, "lanes": 8},
		{"l2_kb": 16384, "lanes": 16},
	}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("expansion order:\n got %v\nwant %v", pts, want)
	}
	var hashes []string
	for _, pt := range pts {
		cfg, err := s.Build(pt)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, confhash.Key("dgemm", "test", cfg))
	}
	// Re-expand from a freshly parsed equivalent spec (benches and axis
	// values in a different order): same canonical form, same points, same
	// hashes.
	s2 := &Spec{
		Benches: []string{"fft", "dgemm"},
		Scale:   "test",
		Axes: map[string]Axis{
			"l2_kb": {Values: []float64{16384, 4096}},
			"lanes": {Values: []float64{16, 8}},
		},
	}
	if err := s2.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Errorf("equivalent specs canonicalized differently:\n%+v\n%+v", s, s2)
	}
	pts2 := s2.Expand()
	if !reflect.DeepEqual(pts, pts2) {
		t.Errorf("equivalent specs expanded differently")
	}
	for i, pt := range pts2 {
		cfg, err := s2.Build(pt)
		if err != nil {
			t.Fatal(err)
		}
		if h := confhash.Key("dgemm", "test", cfg); h != hashes[i] {
			t.Errorf("point %d confhash %s != %s", i, h, hashes[i])
		}
	}
	// All four points are distinct experiments.
	seen := map[string]bool{}
	for _, h := range hashes {
		if seen[h] {
			t.Errorf("duplicate confhash %s in grid", h)
		}
		seen[h] = true
	}
}

// TestApplyKnobs checks every knob lands on its config field and that the
// memory system is rebuilt when ports or clock move.
func TestApplyKnobs(t *testing.T) {
	cfg := sim.T()
	err := Apply(cfg, map[string]float64{
		"lanes": 8, "l2_kb": 4096, "zbox_ports": 4,
		"clock_ghz": 4.26, "pump": 0, "phys_vregs": 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Vbox.Lanes != 8 || cfg.L2.Bytes != 4<<20 || cfg.Zbox.Ports != 4 ||
		cfg.CPUGHz != 4.26 || cfg.Vbox.PumpEnabled || cfg.Vbox.PhysVRegs != 64 {
		t.Errorf("knobs did not land: %+v", cfg)
	}
	// Zbox timing rebuilt at 4 ports × 8.325 GB/s and the doubled clock:
	// same per-port bytes/cycle ratio halves, so line occupancy doubles.
	ref := sim.T()
	if cfg.Zbox.LineCycles <= ref.Zbox.LineCycles {
		t.Errorf("Zbox not rebuilt: LineCycles %d vs ref %d", cfg.Zbox.LineCycles, ref.Zbox.LineCycles)
	}
	if !strings.Contains(cfg.Name, "lanes=8") || !strings.Contains(cfg.Name, "clock_ghz=4.26") {
		t.Errorf("name suffix missing knobs: %q", cfg.Name)
	}
	// Identity: applying no knobs changes nothing, including the hash.
	plain := sim.T()
	if err := Apply(plain, nil); err != nil {
		t.Fatal(err)
	}
	if confhash.Config(plain) != confhash.Config(sim.T()) {
		t.Errorf("empty Apply changed the confhash")
	}
}

// TestParetoFrontier pins domination on hand-built fixtures: dominated
// points are excluded, exact ties are both kept, and the frontier of a
// conflicting set is the whole set.
func TestParetoFrontier(t *testing.T) {
	cases := []struct {
		name  string
		costs []Cost
		want  []int
	}{
		{"dominated excluded",
			[]Cost{{2, 100, 300}, {1, 120, 310}, {1.5, 110, 305}},
			[]int{0}}, // point 0 beats both on all three axes
		{"exact ties kept",
			[]Cost{{2, 100, 300}, {2, 100, 300}, {1, 120, 310}},
			[]int{0, 1}},
		{"conflicting axes all kept",
			[]Cost{{3, 150, 350}, {2, 100, 300}, {1, 50, 250}},
			[]int{0, 1, 2}},
		{"partial domination",
			[]Cost{{2, 100, 300}, {2, 100, 299}, {2, 101, 300}},
			[]int{1}}, // 1 dominates 0 (mm²) and 2 (watts+mm²)
	}
	for _, c := range cases {
		if got := Frontier(c.costs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: frontier %v, want %v", c.name, got, c.want)
		}
	}
	if Frontier(nil) != nil {
		t.Error("empty frontier should be nil")
	}
}

// TestRank pins the ranking of a sweep's simulated points: the baseline's
// speedup is exactly 1, a clock_ghz point's speedup is taken at its own
// clock, a point missing a bench is left out, and the frontier is
// dse.Frontier over the ranked costs, flagged on its points and
// dominated-free. A sweep without a complete baseline cannot be ranked.
func TestRank(t *testing.T) {
	s := &Spec{
		Benches: []string{"dgemm", "fft"},
		Scale:   "test",
		Axes: map[string]Axis{
			"clock_ghz": {Values: []float64{2.13, 4.26}},
			"lanes":     {Values: []float64{8, 16}},
		},
	}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	// Points: baseline T, then (2.13, 8), (2.13, 16), (4.26, 8), (4.26, 16).
	cycles := []map[string]uint64{
		{"dgemm": 1000, "fft": 3000},
		{"dgemm": 2000, "fft": 6000},
		{"dgemm": 1000, "fft": 3000},
		{"dgemm": 2000}, // fft never completed
		{"dgemm": 1000, "fft": 3000},
	}
	points, frontier, err := s.Rank(cycles)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d ranked points, want 4 (the incomplete point left out)", len(points))
	}
	if !points[0].Baseline || points[0].Config != "T" || points[0].Cost.Speedup != 1 {
		t.Errorf("baseline point: %+v (want first, config T, speedup exactly 1)", points[0])
	}
	for _, p := range points[1:] {
		if p.Baseline || p.Knobs == nil {
			t.Errorf("grid point misdescribed: %+v", p)
		}
		if p.Knobs["clock_ghz"] == 4.26 && p.Knobs["lanes"] == 8 {
			t.Errorf("incomplete point ranked: %+v", p)
		}
	}
	// (4.26 GHz, 16 lanes) takes the baseline's cycles at twice its clock.
	last := points[3]
	if last.Knobs["clock_ghz"] != 4.26 || last.Knobs["lanes"] != 16 {
		t.Fatalf("point order: last ranked point is %+v", last)
	}
	if sp := last.Benches["dgemm"].Speedup; sp != 2 {
		t.Errorf("speedup at twice the clock = %v, want 2", sp)
	}
	if points[1].Cost.Speedup != 0.5 {
		t.Errorf("speedup at half the throughput = %v, want 0.5", points[1].Cost.Speedup)
	}
	var costs []Cost
	for _, p := range points {
		costs = append(costs, p.Cost)
	}
	if want := Frontier(costs); !reflect.DeepEqual(frontier, want) || len(frontier) == 0 {
		t.Fatalf("frontier %v, want dse.Frontier's %v (non-empty)", frontier, want)
	}
	on := map[int]bool{}
	for _, i := range frontier {
		on[i] = true
		for j, q := range points {
			if q.Cost.Dominates(points[i].Cost) {
				t.Errorf("frontier point %d is dominated by point %d", i, j)
			}
		}
	}
	for i, p := range points {
		if p.OnFrontier != on[i] {
			t.Errorf("point %d: on_frontier %v, frontier %v", i, p.OnFrontier, frontier)
		}
	}

	cycles[0] = map[string]uint64{"dgemm": 1000}
	if _, _, err := s.Rank(cycles); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Errorf("incomplete baseline ranked: err = %v", err)
	}
}

func TestEvaluateMovesWithKnobs(t *testing.T) {
	wT, aT := Evaluate(sim.T())
	small := sim.T()
	if err := Apply(small, map[string]float64{"lanes": 8, "l2_kb": 8192}); err != nil {
		t.Fatal(err)
	}
	wS, aS := Evaluate(small)
	if wS >= wT || aS >= aT {
		t.Errorf("shrunk design should cost less: %f W %f mm² vs %f W %f mm²", wS, aS, wT, aT)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
}
