package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/confhash"
	"repro/internal/dse"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// sweepRunCounter counts real simulations per confhash key, so sweep tests
// can assert the dedup contract: simulations == unique content addresses.
type sweepRunCounter struct {
	mu   sync.Mutex
	runs map[string]int
	// delay slows each "simulation" down to force overlap windows.
	delay time.Duration
}

func (c *sweepRunCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.runs {
		n += v
	}
	return n
}

func (c *sweepRunCounter) unique() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runs)
}

// run is the stub RunFunc: cycles shrink with lane count and grow with a
// small L2, so swept points land at distinct, physically plausible spots in
// the objective space (more lanes = faster but hotter and bigger).
func (c *sweepRunCounter) run(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error) {
	key := confhash.Key(bench, scale.String(), cfg)
	c.mu.Lock()
	if c.runs == nil {
		c.runs = make(map[string]int)
	}
	c.runs[key]++
	c.mu.Unlock()
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	lanes := 1
	if cfg.HasVbox {
		lanes = cfg.Vbox.Lanes
	}
	cycles := uint64(16_000_000 / lanes)
	if cfg.L2.Bytes < 16<<20 {
		cycles += 500_000
	}
	return &workloads.Result{
		Bench:  bench,
		Config: cfg.Name,
		Scale:  scale,
		Stats:  &stats.Stats{Cycles: cycles, Flops: 512, MemOps: 256, OtherOps: 64, ScalarIns: 100, VectorIns: 10, VecOps: 768},
	}, nil
}

// sweepRun is a sweep submitted as what it is: one job per point and bench.
// jobs is indexed by point — the baseline first, then the grid in canonical
// expansion order — and then by the canonical spec's bench order.
type sweepRun struct {
	spec *dse.Spec
	jobs [][]JobStatus
}

// submitSweep canonicalizes spec and submits every point × bench as a job
// without waiting for any, the way tarload -sweep drives the service.
func submitSweep(t *testing.T, url string, spec dse.Spec) *sweepRun {
	t.Helper()
	if err := spec.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	run := &sweepRun{spec: &spec}
	for i, knobs := range append([]map[string]float64{nil}, spec.Expand()...) {
		config := spec.Config
		if i == 0 {
			config = spec.Baseline
		}
		var row []JobStatus
		for _, bench := range spec.Benches {
			st, code := submit(t, url, SubmitRequest{Bench: bench, Config: config, Scale: spec.Scale, Knobs: knobs})
			if code != http.StatusOK && code != http.StatusAccepted {
				t.Fatalf("submit %s@%s %v: HTTP %d", bench, config, knobs, code)
			}
			row = append(row, st)
		}
		run.jobs = append(run.jobs, row)
	}
	return run
}

// wait waits for every job of the sweep and ranks the points that
// completed.
func (r *sweepRun) wait(t *testing.T, url string) ([]dse.Point, []int, error) {
	t.Helper()
	cycles := make([]map[string]uint64, len(r.jobs))
	for i, row := range r.jobs {
		cycles[i] = map[string]uint64{}
		for k, st := range row {
			if st.State != StateDone && st.State != StateFailed {
				st = waitDone(t, url, st.ID)
				row[k] = st
			}
			if st.State == StateDone {
				cycles[i][r.spec.Benches[k]] = fetchResult(t, url, st.ID).Cycles
			}
		}
	}
	return r.spec.Rank(cycles)
}

// cacheHits counts the sweep's jobs answered from the result store at
// submission.
func (r *sweepRun) cacheHits() int {
	n := 0
	for _, row := range r.jobs {
		for _, st := range row {
			if st.CacheHit {
				n++
			}
		}
	}
	return n
}

func sweep2x2() dse.Spec {
	return dse.Spec{
		Config:  "T",
		Benches: []string{"dgemm", "fft"},
		Scale:   "test",
		Axes: map[string]dse.Axis{
			"lanes": {Values: []float64{8, 16}},
			"l2_kb": {Values: []float64{4096, 16384}},
		},
	}
}

// TestSweepEndToEnd drives a 2×2 grid over two benches through the job
// service as ten jobs and checks the contract a sweep rests on:
// simulations == unique confhashes (the {lanes:16, l2_kb:16384} point IS
// the baseline, shares its content keys and must not re-simulate), the
// baseline's speedup is exactly 1, and the Pareto frontier is non-empty
// with no dominated member.
func TestSweepEndToEnd(t *testing.T) {
	rc := &sweepRunCounter{}
	_, ts := newTestServer(t, Options{Run: rc.run, Workers: 4})
	run := submitSweep(t, ts.URL, sweep2x2())
	points, frontier, err := run.wait(t, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(run.jobs) * len(run.spec.Benches); n != 10 { // (4 grid + 1 baseline) × 2 benches
		t.Fatalf("sweep submitted %d jobs, want 10", n)
	}
	if got, want := rc.total(), 8; got != want {
		// 4 unique configs (baseline == one grid point) × 2 benches.
		t.Errorf("simulations = %d, want %d (dedup must collapse the baseline-identical point)", got, want)
	}
	if rc.total() != rc.unique() {
		t.Errorf("some confhash simulated twice: %d runs over %d keys", rc.total(), rc.unique())
	}
	if len(points) != 5 {
		t.Fatalf("ranking has %d points, want 5", len(points))
	}
	if !points[0].Baseline || points[0].Cost.Speedup != 1 {
		t.Errorf("baseline point: %+v (want first, speedup exactly 1)", points[0])
	}
	if len(frontier) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	for _, i := range frontier {
		if !points[i].OnFrontier {
			t.Errorf("frontier index %d not flagged on its point", i)
		}
		for j, q := range points {
			if q.Cost.Dominates(points[i].Cost) {
				t.Errorf("frontier point %d is dominated by point %d", i, j)
			}
		}
	}
	// The 16-lane 16 MB point is the baseline config in disguise: its jobs
	// must carry the very same content addresses.
	for i, knobs := range run.spec.Expand() {
		if knobs["lanes"] == 16 && knobs["l2_kb"] == 16384 {
			for k, st := range run.jobs[i+1] {
				if st.Key != run.jobs[0][k].Key {
					t.Errorf("%s: baseline-identical point has a different confhash", run.spec.Benches[k])
				}
			}
		}
	}
}

// TestSweepDeterministicReplay: an equivalent spec (benches and axis values
// permuted) canonicalizes to the same spec, submits the same jobs under the
// same content keys, is answered wholly from the result store, and ranks
// to the same points.
func TestSweepDeterministicReplay(t *testing.T) {
	rc := &sweepRunCounter{}
	_, ts := newTestServer(t, Options{Run: rc.run, Workers: 4})
	run1 := submitSweep(t, ts.URL, sweep2x2())
	points1, _, err := run1.wait(t, ts.URL)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	sims := rc.total()
	spec2 := dse.Spec{
		Config:  "T",
		Benches: []string{"fft", "dgemm"},
		Scale:   "test",
		Axes: map[string]dse.Axis{
			"l2_kb": {Values: []float64{16384, 4096}},
			"lanes": {Values: []float64{16, 8}},
		},
	}
	run2 := submitSweep(t, ts.URL, spec2)
	if !reflect.DeepEqual(run1.spec, run2.spec) {
		t.Fatalf("equivalent specs canonicalized differently:\n%+v\n%+v", run1.spec, run2.spec)
	}
	points2, _, err := run2.wait(t, ts.URL)
	if err != nil {
		t.Fatalf("replayed sweep: %v", err)
	}
	if rc.total() != sims {
		t.Errorf("replay simulated %d new experiments, want 0", rc.total()-sims)
	}
	if hits := run2.cacheHits(); hits != 10 {
		t.Errorf("replay: %d of 10 jobs answered from the store", hits)
	}
	for i, row := range run2.jobs {
		for k, st := range row {
			if st.Key != run1.jobs[i][k].Key {
				t.Errorf("point %d bench %s: confhash differs across replays", i, run2.spec.Benches[k])
			}
		}
	}
	if !reflect.DeepEqual(points1, points2) {
		t.Errorf("replay ranked differently:\n%+v\n%+v", points1, points2)
	}
}

// TestSweepOverlapDedup: two overlapping sweeps share single-flight — total
// simulations equal the unique confhashes across both grids.
func TestSweepOverlapDedup(t *testing.T) {
	rc := &sweepRunCounter{delay: 30 * time.Millisecond}
	_, ts := newTestServer(t, Options{Run: rc.run, Workers: 4})
	a := dse.Spec{Config: "T", Benches: []string{"dgemm"}, Scale: "test",
		Axes: map[string]dse.Axis{"lanes": {Values: []float64{8, 16}}}}
	b := dse.Spec{Config: "T", Benches: []string{"dgemm"}, Scale: "test",
		Axes: map[string]dse.Axis{"lanes": {Values: []float64{8, 32}}}}
	runA := submitSweep(t, ts.URL, a)
	runB := submitSweep(t, ts.URL, b) // submitted while A is still running
	if _, _, err := runA.wait(t, ts.URL); err != nil {
		t.Fatalf("sweep A: %v", err)
	}
	if _, _, err := runB.wait(t, ts.URL); err != nil {
		t.Fatalf("sweep B: %v", err)
	}
	// Unique configs across both grids: T (the shared baseline, identical to
	// lanes:16), lanes:8, lanes:32 → 3 simulations for 6 experiments.
	if got := rc.total(); got != 3 {
		t.Errorf("simulations = %d, want 3 (overlap must share single-flight)", got)
	}
	if rc.total() != rc.unique() {
		t.Errorf("some confhash simulated twice: %d runs over %d keys", rc.total(), rc.unique())
	}
}

// TestSweepKnobsEndpoint: the registry is advertised with names, types and
// ranges, and a job whose knobs the registry refuses comes back as a
// bad_request envelope naming the knob.
func TestSweepKnobsEndpoint(t *testing.T) {
	rc := &sweepRunCounter{}
	_, ts := newTestServer(t, Options{Run: rc.run})
	resp, err := http.Get(ts.URL + "/v1/sweeps/knobs")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Knobs []dse.Knob `json:"knobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/sweeps/knobs: HTTP %d, %v", resp.StatusCode, err)
	}
	seen := map[string]dse.Knob{}
	for _, k := range body.Knobs {
		seen[k.Name] = k
	}
	for _, want := range []string{"clock_ghz", "l2_kb", "lanes", "phys_vregs", "pump", "zbox_ports"} {
		if _, ok := seen[want]; !ok {
			t.Errorf("knob %q not advertised", want)
		}
	}
	if len(body.Knobs) != 6 {
		t.Errorf("%d knobs advertised, want 6", len(body.Knobs))
	}
	if k := seen["lanes"]; !k.PowerOfTwo || !k.VectorOnly || k.Min != 2 || k.Max != 64 {
		t.Errorf("lanes knob misdescribed: %+v", k)
	}

	for _, bad := range []struct {
		name string
		req  SubmitRequest
		want string
	}{
		{"unknown knob", SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test",
			Knobs: map[string]float64{"mvl": 64}}, `unknown knob "mvl"`},
		{"non power of two", SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test",
			Knobs: map[string]float64{"lanes": 12}}, `knob "lanes"`},
		{"vector knob on scalar base", SubmitRequest{Bench: "dgemm", Config: "EV8", Scale: "test",
			Knobs: map[string]float64{"pump": 1}}, `knob "pump"`},
	} {
		raw, _ := json.Marshal(bad.req)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error ErrorJSON `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != ErrCodeBadRequest {
			t.Errorf("%s: HTTP %d code %q, want 400 bad_request", bad.name, resp.StatusCode, envelope.Error.Code)
		}
		if !strings.Contains(envelope.Error.Message, bad.want) {
			t.Errorf("%s: message %q does not name the knob (%q)", bad.name, envelope.Error.Message, bad.want)
		}
	}
	if rc.total() != 0 {
		t.Errorf("refused jobs simulated %d times", rc.total())
	}
}

// TestSweepFailedBaselineStatus: a sweep whose baseline job fails cannot be
// ranked, and the job's /result says why with the code and that code's
// HTTP status from ErrorCodeStatus — a panicking run is internal/500, a
// wedge is wedge/422, and a functionally wrong answer is check_failed/422.
func TestSweepFailedBaselineStatus(t *testing.T) {
	wedge := &sim.WedgeError{Config: "T", Reason: sim.ReasonWatchdog, Cycle: 4242, Window: 100, Retired: 7}
	for _, tc := range []struct {
		name   string
		run    RunFunc
		code   string
		status int
	}{
		{"panic", func(string, *sim.Config, workloads.Scale) (*workloads.Result, error) {
			panic("model bug")
		}, ErrCodeInternal, http.StatusInternalServerError},
		{"wedge", func(string, *sim.Config, workloads.Scale) (*workloads.Result, error) {
			return nil, wedge
		}, ErrCodeWedge, http.StatusUnprocessableEntity},
		{"check_failed", func(string, *sim.Config, workloads.Scale) (*workloads.Result, error) {
			return nil, errors.New("dgemm: C[3] = 2, want 3")
		}, ErrCodeCheckFailed, http.StatusUnprocessableEntity},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{Run: tc.run, Workers: 2})
			run := submitSweep(t, ts.URL, dse.Spec{Config: "T", Benches: []string{"dgemm"}, Scale: "test",
				Axes: map[string]dse.Axis{"lanes": {Values: []float64{8}}}})
			if _, _, err := run.wait(t, ts.URL); err == nil || !strings.Contains(err.Error(), "baseline") {
				t.Fatalf("sweep with a failed baseline ranked: err = %v", err)
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/" + run.jobs[0][0].ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			var envelope struct {
				Error ErrorJSON `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&envelope)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if envelope.Error.Code != tc.code || resp.StatusCode != tc.status || ErrorCodeStatus[tc.code] != tc.status {
				t.Errorf("result: HTTP %d code %q, want %d %q", resp.StatusCode, envelope.Error.Code, tc.status, tc.code)
			}
		})
	}
}

// newSweepServerAt builds a server over a disk-backed store in dir without
// registering cleanup, so restart tests control the lifecycle explicitly.
func newSweepServerAt(t *testing.T, dir string, run RunFunc) (*httptest.Server, func()) {
	t.Helper()
	db, err := OpenStore(dir, 128, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Run: run, Store: db, Workers: 4})
	ts := httptest.NewServer(s.Handler())
	return ts, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	}
}

// TestSweepRestartResume is the durability contract: a restarted server
// answers an already-completed sweep's jobs wholly from the result store
// (zero simulations, the same ranking), and a superset sweep resumes
// point-by-point, simulating only the genuinely new configurations.
func TestSweepRestartResume(t *testing.T) {
	dir := t.TempDir()

	rc1 := &sweepRunCounter{}
	ts1, stop1 := newSweepServerAt(t, dir, rc1.run)
	points1, _, err := submitSweep(t, ts1.URL, sweep2x2()).wait(t, ts1.URL)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	if rc1.total() != 8 {
		t.Fatalf("first run simulated %d, want 8", rc1.total())
	}
	stop1() // "restart": drain, then a fresh server over the same directory

	rc2 := &sweepRunCounter{}
	ts2, stop2 := newSweepServerAt(t, dir, rc2.run)
	defer stop2()

	// Same sweep: every job answered from the warm-started store.
	run2 := submitSweep(t, ts2.URL, sweep2x2())
	points2, _, err := run2.wait(t, ts2.URL)
	if err != nil {
		t.Fatalf("replay after restart: %v", err)
	}
	if rc2.total() != 0 || run2.cacheHits() != 10 {
		t.Errorf("replay after restart simulated %d experiments with %d of 10 store hits, want 0 and 10", rc2.total(), run2.cacheHits())
	}
	if !reflect.DeepEqual(points1, points2) {
		t.Errorf("replay after restart ranked differently:\n%+v\n%+v", points1, points2)
	}

	// Superset sweep: every previously-simulated point resumes from the
	// result store; only the two 64 MB configs run.
	super := sweep2x2()
	super.Axes = map[string]dse.Axis{
		"lanes": {Values: []float64{8, 16}},
		"l2_kb": {Values: []float64{4096, 16384, 65536}},
	}
	run3 := submitSweep(t, ts2.URL, super)
	if _, _, err := run3.wait(t, ts2.URL); err != nil {
		t.Fatalf("superset sweep: %v", err)
	}
	if n := len(run3.jobs) * len(run3.spec.Benches); n != 14 { // (6 grid + baseline) × 2 benches
		t.Errorf("superset submitted %d jobs, want 14", n)
	}
	if rc2.total() != 4 { // {lanes 8, lanes 16} × {l2 64MB} × 2 benches
		t.Errorf("superset simulated %d experiments, want 4 (rest must resume from the store)", rc2.total())
	}
	if hits := run3.cacheHits(); hits != 10 {
		t.Errorf("superset store hits = %d, want 10", hits)
	}
}
