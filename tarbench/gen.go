package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// jobSpec is one experiment as POST /v1/jobs takes it.
type jobSpec struct {
	Bench  string             `json:"bench"`
	Config string             `json:"config"`
	Scale  string             `json:"scale"`
	Knobs  map[string]float64 `json:"knobs,omitempty"`
}

// table2 is the paper's Table 2, the benchmarks serve-cold draws from.
var table2 = []string{
	"streams_copy", "streams_scale", "streams_add", "streams_triadd",
	"rndcopy", "rndmemscale", "swim", "art", "sixtrack",
	"dgemm", "dtrmm", "sparsemxv", "fft", "lu", "linpack100", "linpacktpp",
	"moldyn", "ccradix",
}

// coldRounds is how many points of each Table 2 benchmark one serve-cold
// batch holds: about 60 jobs, which keeps one tarserved life far below the
// machine's memory at the ~7 MB a completed cold job retains. Each
// three-level knob below takes every level once per benchmark and batch,
// so the seed changes which points are simulated but hardly what a batch
// costs; job cost depends on the knobs far more than on anything else.
const coldRounds = 3

// coldLevels are serve-cold's three-level knobs, in sorted-name order so
// a seed always draws the same sequence. The levels bracket the paper's
// machine, so a point costs about what a paper cell costs.
var coldLevels = []struct {
	name   string
	values [coldRounds]float64
}{
	{"l2_kb", [coldRounds]float64{4096, 16384, 32768}},
	{"lanes", [coldRounds]float64{8, 16, 32}},
	{"phys_vregs", vregLevels},
	{"zbox_ports", [coldRounds]float64{4, 8, 16}},
}

var vregLevels = [coldRounds]float64{64, 128, 256}

const (
	// clock_ghz falls in band [clockMin+i, clockMin+i+1) for level i, at a
	// seeded point within it: continuous, which makes every point unique.
	clockMin = 2.0
	// rndcopyGroup is the number of rndcopy points per round that differ
	// only in phys_vregs (one per level), so that all but the first can
	// fork from the first one's warm-up snapshot.
	rndcopyGroup = coldRounds
	// replayRequests is the number of requests in one serve-replay batch.
	replayRequests = 4000
)

// replaySet is what serve-replay's set-up simulates: the paper's Table 4
// kernels on T.
var replaySet = []jobSpec{
	{Bench: "streams_copy", Config: "T", Scale: "test"},
	{Bench: "streams_scale", Config: "T", Scale: "test"},
	{Bench: "streams_add", Config: "T", Scale: "test"},
	{Bench: "streams_triadd", Config: "T", Scale: "test"},
	{Bench: "rndcopy", Config: "T", Scale: "test"},
	{Bench: "rndmemscale", Config: "T", Scale: "test"},
}

// batchRand is the random source of batch b of a seed's workload, so every
// generated job list is a pure function of the seed.
func batchRand(seed int64, b int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(b)))
}

// coldBatch returns batch b of serve-cold: coldRounds points of every
// Table 2 benchmark. Per benchmark, each three-level knob and the clock
// band take their levels in a seeded order, and the points alternate
// between T and T4 from a seeded start. Pump is on in two points of a
// seeded half of the benchmarks and in one point of the other half, so
// every batch costs about the same. rndcopy, the one benchmark with a
// warm-up phase, comes as groups of points that differ only in
// phys_vregs. The batch is then shuffled, each rndcopy group kept together.
func coldBatch(seed int64, b int) []jobSpec {
	rng := batchRand(seed, b)
	twoPumped := rng.Perm(len(table2))
	var groups [][]jobSpec
	for bi, bench := range table2 {
		perms := make([][]int, len(coldLevels))
		for k := range coldLevels {
			perms[k] = rng.Perm(coldRounds)
		}
		clock := rng.Perm(coldRounds)
		oddOne := rng.Intn(coldRounds) // pumped alone, or alone unpumped
		start := rng.Intn(2)
		for r := 0; r < coldRounds; r++ {
			pump := 0.0
			if (r == oddOne) != (twoPumped[bi] < len(table2)/2) {
				pump = 1
			}
			knobs := map[string]float64{
				"clock_ghz": math.Round((clockMin+float64(clock[r])+rng.Float64())*1e6) / 1e6,
				"pump":      pump,
			}
			for k, l := range coldLevels {
				knobs[l.name] = l.values[perms[k][r]]
			}
			config := []string{"T", "T4"}[(start+r)%2]
			n := 1
			if bench == "rndcopy" {
				n = rndcopyGroup
			}
			var group []jobSpec
			for v := 0; v < n; v++ {
				pt := make(map[string]float64, len(knobs))
				for name, x := range knobs {
					pt[name] = x
				}
				if n > 1 {
					pt["phys_vregs"] = vregLevels[v]
				}
				group = append(group, jobSpec{Bench: bench, Config: config, Scale: "test", Knobs: pt})
			}
			groups = append(groups, group)
		}
	}
	var jobs []jobSpec
	for _, i := range rng.Perm(len(groups)) {
		jobs = append(jobs, groups[i]...)
	}
	return jobs
}

// replayBatch returns batch b of serve-replay: replayRequests resubmissions
// of replaySet entries drawn by seed.
func replayBatch(seed int64, b int) []jobSpec {
	rng := batchRand(seed, b)
	jobs := make([]jobSpec, replayRequests)
	for i := range jobs {
		jobs[i] = replaySet[rng.Intn(len(replaySet))]
	}
	return jobs
}

// knob is one entry of GET /v1/sweeps/knobs.
type knob struct {
	Name       string  `json:"name"`
	Type       string  `json:"type"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	PowerOfTwo bool    `json:"power_of_two"`
}

// checkKnobs reports the first generated knob value outside the legal
// ranges the server's registry advertises.
func checkKnobs(reg []knob, jobs []jobSpec) error {
	byName := make(map[string]knob, len(reg))
	for _, k := range reg {
		byName[k.Name] = k
	}
	for _, j := range jobs {
		for name, v := range j.Knobs {
			k, ok := byName[name]
			switch {
			case !ok:
				return fmt.Errorf("knob %q is not in the server's registry", name)
			case v < k.Min || v > k.Max:
				return fmt.Errorf("knob %s=%v outside the legal range [%v, %v]", name, v, k.Min, k.Max)
			case k.Type != "float" && v != math.Trunc(v):
				return fmt.Errorf("knob %s=%v is not an integer", name, v)
			case k.PowerOfTwo && (v < 1 || int64(v)&(int64(v)-1) != 0):
				return fmt.Errorf("knob %s=%v is not a power of two", name, v)
			}
		}
	}
	return nil
}

// mixRecord describes a run's generated inputs for its run record.
type mixRecord struct {
	Seed    int64                     `json:"seed"`
	Batches int                       `json:"batches"`
	Jobs    int                       `json:"jobs"`
	Benches map[string]int            `json:"benches"`
	Configs map[string]int            `json:"configs"`
	Knobs   map[string]map[string]int `json:"knob_values,omitempty"`
	// RndcopyGroups lists the size of each group of rndcopy points that
	// share everything but phys_vregs.
	RndcopyGroups []int `json:"rndcopy_groups,omitempty"`
	// Points is every generated job, batch by batch (serve-cold).
	Points [][]jobSpec `json:"points,omitempty"`
}

func describeMix(seed int64, batches [][]jobSpec, withPoints bool) *mixRecord {
	m := &mixRecord{Seed: seed, Batches: len(batches), Benches: map[string]int{}, Configs: map[string]int{}}
	for _, jobs := range batches {
		m.Jobs += len(jobs)
		for i, j := range jobs {
			m.Benches[j.Bench]++
			m.Configs[j.Config]++
			for name, v := range j.Knobs {
				if name == "clock_ghz" {
					continue
				}
				if m.Knobs == nil {
					m.Knobs = map[string]map[string]int{}
				}
				if m.Knobs[name] == nil {
					m.Knobs[name] = map[string]int{}
				}
				m.Knobs[name][strconv.FormatFloat(v, 'g', -1, 64)]++
			}
			if !withPoints || j.Bench != "rndcopy" {
				continue
			}
			if i > 0 && jobs[i-1].Bench == "rndcopy" && jobs[i-1].Knobs["clock_ghz"] == j.Knobs["clock_ghz"] {
				m.RndcopyGroups[len(m.RndcopyGroups)-1]++
			} else {
				m.RndcopyGroups = append(m.RndcopyGroups, 1)
			}
		}
	}
	if withPoints {
		m.Points = batches
	}
	return m
}
