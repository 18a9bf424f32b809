package main

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/dse"
)

func registry() []knob {
	var reg []knob
	for _, k := range dse.Knobs() {
		reg = append(reg, knob{Name: k.Name, Type: k.Type, Min: k.Min, Max: k.Max, PowerOfTwo: k.PowerOfTwo})
	}
	return reg
}

func TestColdBatchIsPureAndLegal(t *testing.T) {
	a, b := coldBatch(7, 3), coldBatch(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("coldBatch is not a pure function of seed and batch")
	}
	if reflect.DeepEqual(a, coldBatch(8, 3)) {
		t.Fatal("coldBatch ignores its seed")
	}
	if err := checkKnobs(registry(), a); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, j := range a {
		key := j.Bench + j.Config + fmtKnobs(j.Knobs)
		if seen[key] {
			t.Fatalf("duplicate point %s", key)
		}
		seen[key] = true
	}
	if n := len(a); n != (len(table2)-1)*coldRounds+coldRounds*rndcopyGroup {
		t.Fatalf("batch has %d jobs", n)
	}
	// Each benchmark takes every level of every three-level knob once.
	for _, l := range coldLevels {
		if l.name == "phys_vregs" {
			continue
		}
		for _, bench := range table2 {
			got := map[float64]int{}
			for _, j := range a {
				if j.Bench == bench && (bench != "rndcopy" || j.Knobs["phys_vregs"] == vregLevels[0]) {
					got[j.Knobs[l.name]]++
				}
			}
			for _, v := range l.values {
				if got[v] != 1 {
					t.Fatalf("%s: %s=%v used %d times, want once", bench, l.name, v, got[v])
				}
			}
		}
	}
}

func TestReplayBatchIsPure(t *testing.T) {
	if !reflect.DeepEqual(replayBatch(5, 1), replayBatch(5, 1)) {
		t.Fatal("replayBatch is not a pure function of seed and batch")
	}
}

func fmtKnobs(k map[string]float64) string {
	s := ""
	for _, l := range []string{"clock_ghz", "l2_kb", "lanes", "phys_vregs", "pump", "zbox_ports"} {
		s += "," + l + "=" + strconv.FormatFloat(k[l], 'g', -1, 64)
	}
	return s
}

// Every batch pumps half its benchmark points (an rndcopy group counting
// once), whatever its seed and parity.
func TestColdBatchPumpIsBalanced(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for b := 0; b < 4; b++ {
			n := 0
			for _, j := range coldBatch(seed, b) {
				if j.Knobs["pump"] == 1 && (j.Bench != "rndcopy" || j.Knobs["phys_vregs"] == vregLevels[0]) {
					n++
				}
			}
			if want := len(table2) * coldRounds / 2; n != want {
				t.Fatalf("seed %d batch %d pumps %d benchmark points, want %d", seed, b, n, want)
			}
		}
	}
}
