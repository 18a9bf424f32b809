package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/confhash"
	"repro/internal/dse"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
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

func postSweep(t *testing.T, url string, spec dse.Spec) (SweepStatus, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding sweep response (HTTP %d): %v", resp.StatusCode, err)
	}
	return st, resp.StatusCode
}

func waitSweepDone(t *testing.T, url, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/sweeps/" + id + "?wait=5s")
		if err != nil {
			t.Fatal(err)
		}
		var st SweepStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
	}
	t.Fatalf("sweep %s never reached a terminal state", id)
	return SweepStatus{}
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

// TestSweepEndToEnd drives a 2×2 grid over two benches through the full
// pipeline and checks the tentpole contract: simulations == unique
// confhashes (the {lanes:16, l2_kb:16384} point IS the baseline and must
// not re-simulate), the baseline's speedup is exactly 1, and the Pareto
// frontier is non-empty with no dominated member.
func TestSweepEndToEnd(t *testing.T) {
	rc := &sweepRunCounter{}
	_, ts := newTestServer(t, Options{Run: rc.run, Workers: 4})
	st, code := postSweep(t, ts.URL, sweep2x2())
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("POST /v1/sweeps = HTTP %d", code)
	}
	if st.Total != 10 { // (4 grid + 1 baseline) × 2 benches
		t.Fatalf("total = %d, want 10", st.Total)
	}
	fin := waitSweepDone(t, ts.URL, st.ID)
	if fin.State != StateDone || fin.Done != 10 || fin.Failed != 0 {
		t.Fatalf("sweep finished %s done=%d failed=%d: %+v", fin.State, fin.Done, fin.Failed, fin.Error)
	}
	if got, want := rc.total(), 8; got != want {
		// 4 unique configs (baseline == one grid point) × 2 benches.
		t.Errorf("simulations = %d, want %d (dedup must collapse the baseline-identical point)", got, want)
	}
	if rc.total() != rc.unique() {
		t.Errorf("some confhash simulated twice: %d runs over %d keys", rc.total(), rc.unique())
	}
	res := fin.Result
	if res == nil {
		t.Fatal("done sweep carries no result")
	}
	if len(res.Points) != 5 {
		t.Fatalf("result has %d points, want 5", len(res.Points))
	}
	if !res.Points[0].Baseline || res.Points[0].Cost.Speedup != 1 {
		t.Errorf("baseline point: %+v (want first, speedup exactly 1)", res.Points[0])
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	for _, i := range res.Frontier {
		if !res.Points[i].OnFrontier {
			t.Errorf("frontier index %d not flagged on its point", i)
		}
		for j, q := range res.Points {
			if q.Cost.Dominates(res.Points[i].Cost) {
				t.Errorf("frontier point %d is dominated by point %d", i, j)
			}
		}
	}
	// The 16-lane 16 MB point is the baseline config in disguise: its cells
	// must carry the very same content addresses.
	for _, p := range res.Points[1:] {
		if p.Knobs["lanes"] == 16 && p.Knobs["l2_kb"] == 16384 {
			for b, cell := range p.Benches {
				if cell.Confhash != res.Points[0].Benches[b].Confhash {
					t.Errorf("%s: baseline-identical point has a different confhash", b)
				}
			}
		}
	}
	// GET /v1/sweeps/{id}/result returns the bare result with HTTP 200.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var sr SweepResult
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || sr.Key != fin.Key || len(sr.Points) != 5 {
		t.Errorf("result endpoint: HTTP %d, key %s, %d points (%v)", resp.StatusCode, sr.Key, len(sr.Points), err)
	}
}

// TestSweepDeterministicReplay: an equivalent spec (benches and axis values
// permuted) canonicalizes to the same key, joins the finished sweep, and
// simulates nothing new; point order and confhashes are identical.
func TestSweepDeterministicReplay(t *testing.T) {
	rc := &sweepRunCounter{}
	_, ts := newTestServer(t, Options{Run: rc.run, Workers: 4})
	st1, _ := postSweep(t, ts.URL, sweep2x2())
	fin1 := waitSweepDone(t, ts.URL, st1.ID)
	if fin1.State != StateDone {
		t.Fatalf("first sweep failed: %+v", fin1.Error)
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
	st2, _ := postSweep(t, ts.URL, spec2)
	if st2.Key != fin1.Key {
		t.Fatalf("equivalent specs got different keys %s vs %s", st2.Key, fin1.Key)
	}
	if st2.ID != st1.ID {
		t.Fatalf("equivalent spec started a second sweep %s instead of joining %s", st2.ID, st1.ID)
	}
	fin2 := waitSweepDone(t, ts.URL, st2.ID)
	if rc.total() != sims {
		t.Errorf("replay simulated %d new experiments, want 0", rc.total()-sims)
	}
	for i, p := range fin2.Result.Points {
		for b, cell := range p.Benches {
			if cell.Confhash != fin1.Result.Points[i].Benches[b].Confhash {
				t.Errorf("point %d bench %s: confhash differs across replays", i, b)
			}
		}
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
	stA, _ := postSweep(t, ts.URL, a)
	stB, _ := postSweep(t, ts.URL, b) // posted while A is still running
	finA := waitSweepDone(t, ts.URL, stA.ID)
	finB := waitSweepDone(t, ts.URL, stB.ID)
	if finA.State != StateDone || finB.State != StateDone {
		t.Fatalf("sweeps finished %s/%s", finA.State, finB.State)
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
// ranges, and bad axes come back as bad_request envelopes naming the field.
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
	if k := seen["lanes"]; !k.PowerOfTwo || !k.VectorOnly || k.Min != 2 || k.Max != 64 {
		t.Errorf("lanes knob misdescribed: %+v", k)
	}

	for _, bad := range []struct {
		name string
		spec dse.Spec
		want string
	}{
		{"unknown knob", dse.Spec{Benches: []string{"dgemm"}, Scale: "test",
			Axes: map[string]dse.Axis{"mvl": {Values: []float64{64}}}}, `unknown knob "mvl"`},
		{"non power of two", dse.Spec{Benches: []string{"dgemm"}, Scale: "test",
			Axes: map[string]dse.Axis{"lanes": {Values: []float64{12}}}}, `knob "lanes"`},
		{"vector knob on scalar base", dse.Spec{Config: "EV8", Benches: []string{"dgemm"}, Scale: "test",
			Axes: map[string]dse.Axis{"pump": {Values: []float64{0, 1}}}}, `knob "pump"`},
	} {
		raw, _ := json.Marshal(bad.spec)
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(raw))
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
			t.Errorf("%s: message %q does not name the field (%q)", bad.name, envelope.Error.Message, bad.want)
		}
	}
}

// TestSweepFailedBaselineStatus: a sweep whose baseline fails answers
// GET /v1/sweeps/{id}/result with the baseline's code and that code's HTTP
// status from the closed table — a panicking run is internal/500, a wedge
// stays wedge/422.
func TestSweepFailedBaselineStatus(t *testing.T) {
	wedge := &sim.WedgeError{Config: "T", Reason: sim.ReasonWatchdog, Cycle: 4242, Window: 100, Retired: 7}
	for _, tc := range []struct {
		name string
		run  RunFunc
		code string
	}{
		{"panic", func(string, *sim.Config, workloads.Scale) (*workloads.Result, error) {
			panic("model bug")
		}, ErrCodeInternal},
		{"wedge", func(string, *sim.Config, workloads.Scale) (*workloads.Result, error) {
			return nil, wedge
		}, ErrCodeWedge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{Run: tc.run, Workers: 2})
			st, _ := postSweep(t, ts.URL, dse.Spec{Config: "T", Benches: []string{"dgemm"}, Scale: "test",
				Axes: map[string]dse.Axis{"lanes": {Values: []float64{8}}}})
			if fin := waitSweepDone(t, ts.URL, st.ID); fin.State != StateFailed {
				t.Fatalf("sweep finished %s, want failed", fin.State)
			}
			resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/result")
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
			if envelope.Error.Code != tc.code || resp.StatusCode != ErrorCodeStatus[tc.code] {
				t.Errorf("result: HTTP %d code %q, want %d %q", resp.StatusCode, envelope.Error.Code, ErrorCodeStatus[tc.code], tc.code)
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
// answers an already-completed spec whole from the sweep blob (zero
// simulations), and a superset spec resumes point-by-point from the result
// store, simulating only the genuinely new configurations.
func TestSweepRestartResume(t *testing.T) {
	dir := t.TempDir()

	rc1 := &sweepRunCounter{}
	ts1, stop1 := newSweepServerAt(t, dir, rc1.run)
	st1, _ := postSweep(t, ts1.URL, sweep2x2())
	fin1 := waitSweepDone(t, ts1.URL, st1.ID)
	if fin1.State != StateDone {
		t.Fatalf("first sweep failed: %+v", fin1.Error)
	}
	if rc1.total() != 8 {
		t.Fatalf("first run simulated %d, want 8", rc1.total())
	}
	stop1() // "restart": drain, then a fresh server over the same directory

	rc2 := &sweepRunCounter{}
	ts2, stop2 := newSweepServerAt(t, dir, rc2.run)
	defer stop2()

	// Same spec: answered whole from the durable sweep blob.
	st2, code := postSweep(t, ts2.URL, sweep2x2())
	if code != http.StatusOK || st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("replay after restart: HTTP %d state %s cache_hit %v", code, st2.State, st2.CacheHit)
	}
	if st2.Key != fin1.Key {
		t.Errorf("replay key %s != original %s", st2.Key, fin1.Key)
	}
	if rc2.total() != 0 {
		t.Errorf("replay after restart simulated %d experiments, want 0", rc2.total())
	}
	if st2.Result == nil || len(st2.Result.Points) != len(fin1.Result.Points) {
		t.Fatalf("replayed result missing or truncated: %+v", st2.Result)
	}

	// Superset spec: a new sweep key, but every previously-simulated point
	// resumes from the result store; only the two 64 MB configs run.
	super := sweep2x2()
	super.Axes = map[string]dse.Axis{
		"lanes": {Values: []float64{8, 16}},
		"l2_kb": {Values: []float64{4096, 16384, 65536}},
	}
	st3, _ := postSweep(t, ts2.URL, super)
	if st3.Key == fin1.Key {
		t.Fatal("superset spec reused the original key")
	}
	fin3 := waitSweepDone(t, ts2.URL, st3.ID)
	if fin3.State != StateDone || fin3.Failed != 0 {
		t.Fatalf("superset sweep failed: %+v", fin3.Error)
	}
	if fin3.Total != 14 { // (6 grid + baseline) × 2 benches
		t.Errorf("superset total = %d, want 14", fin3.Total)
	}
	if rc2.total() != 4 { // {lanes 8, lanes 16} × {l2 64MB} × 2 benches
		t.Errorf("superset simulated %d experiments, want 4 (rest must resume from the store)", rc2.total())
	}
	if fin3.PointCacheHits != 10 {
		t.Errorf("superset point_cache_hits = %d, want 10", fin3.PointCacheHits)
	}
}

// TestSweepBlobRoundTrip pins the sweeps namespace of the serve store:
// blobs survive a put/get cycle in memory and a reopen from disk, at the
// documented on-disk path.
func TestSweepBlobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenStore(dir, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 16)
	if _, ok := db.Get(store.Sweeps, key); ok {
		t.Fatal("blob present before put")
	}
	raw := []byte(`{"schema":1,"key":"` + key + `"}`)
	db.Put(store.Sweeps, key, raw)
	got, ok := db.Get(store.Sweeps, key)
	if !ok || !bytes.Equal(got, raw) {
		t.Fatalf("round trip: ok=%v got=%s", ok, got)
	}
	db.Close()
	path := filepath.Join(dir, "sweeps", fmt.Sprintf("schema-%d", SweepSchemaVersion), key+".json")
	if disk, err := os.ReadFile(path); err != nil || !bytes.Equal(disk, raw) {
		t.Fatalf("blob not at its on-disk path %s: %v", path, err)
	}

	reopened, err := OpenStore(dir, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, ok = reopened.Get(store.Sweeps, key)
	if !ok || !bytes.Equal(got, raw) {
		t.Fatalf("blob lost across reopen: ok=%v got=%s", ok, got)
	}
}
