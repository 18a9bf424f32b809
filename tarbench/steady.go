package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// summary is one metric over a set of runs.
type summary struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3 − Q1) ÷ Median, the share a metric's bound caps.
	Spread float64 `json:"spread"`
}

func summarize(vs []float64) summary {
	q1, q3 := quartiles(vs)
	m := median(vs)
	return summary{Values: vs, Median: m, Q1: q1, Q3: q3, Spread: per(q3-q1, m)}
}

// workloadSet is one workload's runs within one set.
type workloadSet struct {
	Seeds        []int64            `json:"seeds"`
	Metrics      map[string]summary `json:"metrics"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Fingerprints []string           `json:"fingerprints"`
	Hosts        []hostFacts        `json:"hosts"`
	// Traced is one traced run: its per-layer metrics, and the end-to-end
	// ones it measured while tracing.
	Traced *runRecord `json:"traced"`
	// TraceOverheadPct is, per end-to-end metric, how far the traced run
	// read from the untraced median, in percent of that median.
	TraceOverheadPct map[string]float64 `json:"trace_overhead_pct"`
}

// steadyRecord is the benchmark's record of its own repeatability: two
// independent sets of runs of one commit.
type steadyRecord struct {
	RunSeconds int                       `json:"run_seconds"`
	Runs       int                       `json:"runs_per_set"`
	Sets       []map[string]*workloadSet `json:"sets"`
	// Drift is, per workload and end-to-end metric, how much worse the
	// second set's median is than the first's, as a share of the first
	// (negative: better).
	Drift map[string]map[string]float64 `json:"drift"`
	// Violations lists each spread or drift beyond its metric's bound, and
	// each failed run; empty when the record passes.
	Violations []string `json:"violations"`
}

// steadyRuns is how many runs of each workload one set holds.
const steadyRuns = 10

// steadiness runs every workload steadyRuns times in each of two sets,
// with fresh seeds per run, plus one traced run per workload and set, and
// writes the summary to out.
func steadiness(root, out string, seconds int) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	rec := steadyRecord{RunSeconds: seconds, Runs: steadyRuns, Drift: map[string]map[string]float64{}, Violations: []string{}}
	for set := 0; set < 2; set++ {
		sets := map[string]*workloadSet{}
		recs := map[string][]*runRecord{}
		// Workloads alternate within each round of seeds, so a slow host
		// window spreads over all of them instead of landing on one.
		for i := 0; i < steadyRuns; i++ {
			seed := int64(1000*set + i + 1)
			for _, w := range spec.Workloads {
				r, err := child(self, root, build, w.Name, seed, seconds, false)
				if err != nil {
					return err
				}
				recs[w.Name] = append(recs[w.Name], r)
				fmt.Fprintf(os.Stderr, "steady: set %d %s seed %d: %v\n", set+1, w.Name, seed, r.EndToEnd)
			}
		}
		for _, w := range spec.Workloads {
			tr, err := child(self, root, build, w.Name, int64(1000*set+1), seconds, true)
			if err != nil {
				return err
			}
			tr.Mix = nil
			ws := &workloadSet{Metrics: map[string]summary{}, Traced: tr, TraceOverheadPct: map[string]float64{}}
			for _, r := range recs[w.Name] {
				ws.Seeds = append(ws.Seeds, r.Seed)
				ws.Attempted += r.Result.Attempted
				ws.Failed += r.Result.Failed
				ws.Fingerprints = append(ws.Fingerprints, r.Fingerprint)
				ws.Hosts = append(ws.Hosts, r.Host)
			}
			for _, m := range spec.EndToEnd {
				var vs []float64
				for _, r := range recs[w.Name] {
					vs = append(vs, r.EndToEnd[m.Name])
				}
				s := summarize(vs)
				ws.Metrics[m.Name] = s
				ws.TraceOverheadPct[m.Name] = 100 * per(tr.EndToEnd[m.Name]-s.Median, s.Median)
				if s.Spread > m.Bound {
					rec.Violations = append(rec.Violations, fmt.Sprintf("set %d %s %s: spread %.4f > bound %v", set+1, w.Name, m.Name, s.Spread, m.Bound))
				}
			}
			if ws.Failed > 0 || tr.Result.Failed > 0 {
				rec.Violations = append(rec.Violations, fmt.Sprintf("set %d %s: %d failed", set+1, w.Name, ws.Failed+tr.Result.Failed))
			}
			sets[w.Name] = ws
		}
		rec.Sets = append(rec.Sets, sets)
	}
	for _, w := range spec.Workloads {
		rec.Drift[w.Name] = map[string]float64{}
		for _, m := range spec.EndToEnd {
			a, b := rec.Sets[0][w.Name].Metrics[m.Name].Median, rec.Sets[1][w.Name].Metrics[m.Name].Median
			d := per(b-a, a)
			if m.Better == "higher" {
				d = -d
			}
			rec.Drift[w.Name][m.Name] = d
			if d > m.Bound {
				rec.Violations = append(rec.Violations, fmt.Sprintf("%s %s: second median worse by %.4f > bound %v", w.Name, m.Name, d, m.Bound))
			}
		}
	}
	for _, v := range rec.Violations {
		fmt.Fprintln(os.Stderr, "steady: violation:", v)
	}
	return writeJSON(out, rec)
}

// child runs one benchmark run as a separate process and returns its record.
func child(self, root, build, workload string, seed int64, seconds int, traced bool) (*runRecord, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := command(self, "-root", root, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %s: %w", workload, seed, trace, err)
	}
	path := recordPath(build, workload, seed, traced)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runRecord
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
