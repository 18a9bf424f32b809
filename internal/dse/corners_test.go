package dse

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// cornerGolden is the capture the knob-corner test compares against.
const cornerGolden = "testdata/knob_corners_test_scale.json"

// knobCorners are the two extremes of the design space serve-cold draws
// from: the smallest L2, widest lanes and fewest ports at the fastest clock
// with the pump off, and the largest L2, narrowest lanes and most ports at
// the slowest clock with the pump on.
var knobCorners = []struct {
	name   string
	config string
	knobs  map[string]float64
}{
	{"small-l2-wide-fast", "T4", map[string]float64{
		"l2_kb": 4096, "lanes": 32, "phys_vregs": 64, "zbox_ports": 4, "pump": 0, "clock_ghz": 4.5}},
	{"large-l2-narrow-slow", "T", map[string]float64{
		"l2_kb": 32768, "lanes": 8, "phys_vregs": 256, "zbox_ports": 16, "pump": 1, "clock_ghz": 2.5}},
}

// cornerBenches cover the vector memory paths the corners stress: pump and
// no-pump stride 1, gathers and scatters through the CR box, reordered
// strides, MAF-full stalls and panic replays.
var cornerBenches = []string{
	"streams_copy", "rndcopy", "rndmemscale", "sparsemxv", "swim",
	"fft", "dgemm", "linpack100", "moldyn", "ccradix",
}

type cornerCell struct {
	Bench  string       `json:"bench"`
	Corner string       `json:"corner"`
	Stats  *stats.Stats `json:"stats"`
}

// runCorners simulates every corner benchmark at test scale.
func runCorners(t *testing.T) []cornerCell {
	t.Helper()
	var cells []cornerCell
	for _, c := range knobCorners {
		for _, bench := range cornerBenches {
			cfg := *sim.ByName(c.config)
			if err := Apply(&cfg, c.knobs); err != nil {
				t.Fatal(err)
			}
			b, err := workloads.Get(bench)
			if err != nil {
				t.Fatal(err)
			}
			res, err := b.Run(&cfg, workloads.Test)
			if err != nil {
				t.Fatalf("%s on %s: %v", bench, c.name, err)
			}
			cells = append(cells, cornerCell{Bench: bench, Corner: c.name, Stats: res.Stats})
		}
	}
	return cells
}

// TestKnobCornersMatchGolden pins every counter of the design-space points
// serve-cold simulates, where the paper's machines never go: MAF-full
// stalls, panic replays and CR-box slices are densest at these corners, so
// a change to the vector memory path that keeps the paper sweep identical
// can still drift here.
func TestKnobCornersMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("20 test-scale simulations skipped in -short mode")
	}
	raw, err := os.ReadFile(cornerGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden []cornerCell
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	want := make(map[[2]string]*stats.Stats, len(golden))
	for _, c := range golden {
		want[[2]string{c.Bench, c.Corner}] = c.Stats
	}
	cells := runCorners(t)
	if len(cells) != len(want) {
		t.Errorf("ran %d cells, the capture has %d", len(cells), len(want))
	}
	for _, c := range cells {
		w, ok := want[[2]string{c.Bench, c.Corner}]
		if !ok {
			t.Errorf("%s at %s: not in the capture", c.Bench, c.Corner)
			continue
		}
		if *c.Stats != *w {
			t.Errorf("%s at %s: counters drifted from the capture:\n  got:  %+v\n  want: %+v",
				c.Bench, c.Corner, *c.Stats, *w)
		}
	}
}
