// Command tarbench is the repository benchmark. It runs one seeded
// workload against the tartables and tarserved binaries built from the
// checkout it starts in, checks their outputs, and prints one JSON line:
// the end-to-end metrics BENCHMARK.json lists on an untraced run, its
// per-layer metrics on a traced one. README.md defines each metric.
//
// Run it through run.sh from the repository root, which builds the
// binaries first:
//
//	bash tarbench/run.sh --workload serve-cold --seed 7 --seconds 20 --trace 0
//	bash tarbench/run.sh -steady tarbench/results/steadiness.json -seconds 30
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// workloadFuncs maps each workload name to its implementation.
var workloadFuncs = map[string]func(*env) (*outcome, error){
	"paper-sweep":  paperSweep,
	"serve-cold":   serveCold,
	"serve-replay": serveReplay,
}

// env is one run's settings.
type env struct {
	bin     string // directory holding the built tartables and tarserved
	work    string // this run's scratch directory, removed when it ends
	seed    int64
	seconds time.Duration
	spans   *spanLog // nil on untraced runs
}

func (e *env) traced() bool { return e.spans != nil }

// another reports whether a run that started at start and has done units
// units of work, the last taking last, has time for one more: a run
// measures for about its seconds and never for much longer.
func (e *env) another(start time.Time, units int, last time.Duration) bool {
	return units == 0 || time.Since(start)+last <= e.seconds
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string // the first failures, for the run record
	e2e               map[string]float64
	layers            map[string]float64
	fingerprint       string
	mix               any // the generated inputs
}

// fail counts one failed job or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is everything one run knows, so a slow host window or a
// changed input mix can be told apart from a regression.
type runRecord struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Traced      bool               `json:"traced"`
	Host        hostFacts          `json:"host"`
	Result      result             `json:"result"`
	EndToEnd    map[string]float64 `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Fingerprint string             `json:"fingerprint"`
	Problems    []string           `json:"problems,omitempty"`
	Mix         any                `json:"mix,omitempty"`
}

func main() {
	root := flag.String("root", ".", "repository checkout holding BENCHMARK.json and .bench_build/")
	workload := flag.String("workload", "", "workload to run: paper-sweep, serve-cold or serve-replay")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "seconds of load to measure")
	trace := flag.Int("trace", 0, "1 = traced run: CPU profiles and spans, per-layer metrics")
	steady := flag.String("steady", "", "run two sets of runs of every workload and write their steadiness record here")
	flag.Parse()

	var err error
	if *steady != "" {
		err = steadiness(*root, *steady, *seconds)
	} else {
		err = runOnce(*root, *workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tarbench:", err)
		os.Exit(1)
	}
}

// recordPath is where a run writes its record under the build directory.
func recordPath(build, workload string, seed int64, traced bool) string {
	trace := 0
	if traced {
		trace = 1
	}
	return filepath.Join(build, "runs", fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace))
}

func runOnce(root, workload string, seed int64, seconds int, traced bool) error {
	fn, ok := workloadFuncs[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{bin: build, work: work, seed: seed, seconds: time.Duration(seconds) * time.Second}
	if traced {
		e.spans = &spanLog{t0: time.Now()}
	}
	host := measureHost()
	o, err := fn(e)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	host.CalibEndMs = calibrate()

	names, values := spec.EndToEnd, o.e2e
	if traced {
		names, values = spec.PerLayer, o.layers
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range names {
		v, ok := values[m.Name]
		if !ok && !traced {
			return fmt.Errorf("%s does not measure %s", workload, m.Name)
		}
		// A per-layer metric of a layer the workload does not use reads 0.
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	rec := runRecord{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, Host: host,
		Result: res, EndToEnd: o.e2e, PerLayer: o.layers,
		Fingerprint: o.fingerprint, Problems: o.problems, Mix: o.mix,
	}
	if err := writeJSON(recordPath(build, workload, seed, traced), rec); err != nil {
		return err
	}
	if traced {
		if err := e.spans.write(filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))); err != nil {
			return err
		}
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "tarbench: failed:", p)
	}
	fmt.Printf("fingerprint %s %s\n", workload, o.fingerprint)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// spanLog keeps a traced run's spans in memory until the run ends, then
// writes them in Chrome trace-event format (chrome://tracing, Perfetto).
// Spans of one job share its id; each names its parent span.
type spanLog struct {
	mu     sync.Mutex
	t0     time.Time
	events []traceEvent
}

type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

func (l *spanLog) add(name, id, parent string, tid int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, traceEvent{
		Name: name, Ph: "X", PID: 1, TID: tid,
		TS:   float64(start.Sub(l.t0).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(start).Nanoseconds()) / 1e3,
		Args: map[string]string{"id": id, "parent": parent},
	})
}

// job records one served job: serve.job with its serve.submit, serve.wait
// and serve.fetch children, and sim.loop — the job's sim_wall_ns, ending
// when the wait did — as a child of serve.wait.
func (l *spanLog) job(tid int, id string, t *jobTiming) {
	if l == nil || t.err != nil {
		return
	}
	l.add("serve.job", id, "", tid, t.start, t.fetched)
	l.add("serve.submit", id, "serve.job", tid, t.start, t.submitted)
	l.add("serve.wait", id, "serve.job", tid, t.submitted, t.waited)
	if t.result != nil && !t.cacheHit && t.result.SimWallNs > 0 {
		l.add("sim.loop", id, "serve.wait", tid, t.waited.Add(-time.Duration(t.result.SimWallNs)), t.waited)
	}
	l.add("serve.fetch", id, "serve.job", tid, t.waited, t.fetched)
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return writeJSON(path, map[string]any{"traceEvents": l.events, "displayTimeUnit": "ms"})
}
