package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/confhash"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workloads"
)

// fakeResult builds a plausible completed Result without running the
// simulator.
func fakeResult(bench, config string) *workloads.Result {
	return &workloads.Result{
		Bench:  bench,
		Config: config,
		Scale:  workloads.Test,
		Stats:  &stats.Stats{Cycles: 1000, Flops: 512, MemOps: 256, OtherOps: 64, ScalarIns: 100, VectorIns: 10, VecOps: 768},
	}
}

// artifact is the stored form of a fake result under key, the bytes
// complete puts in the store.
func artifact(key, bench string) []byte {
	raw, err := json.Marshal(EncodeResult(key, fakeResult(bench, "T")))
	if err != nil {
		panic(err)
	}
	return raw
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func submit(t *testing.T, url string, req SubmitRequest) (JobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response (HTTP %d): %v", resp.StatusCode, err)
	}
	return st, resp.StatusCode
}

func waitDone(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id + "?wait=5s")
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// fetchResult reads a done job's result from its one read path,
// GET /v1/jobs/{id}/result.
func fetchResult(t *testing.T, url, id string) *JobResult {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result of %s: HTTP %d", id, resp.StatusCode)
	}
	var jr JobResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return &jr
}

// metric scrapes one numeric series from /metrics.
func metric(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCacheDedupConcurrent is the satellite's headline guarantee: N
// concurrent identical submissions cost exactly one simulation, and every
// job still completes with the shared result.
func TestCacheDedupConcurrent(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{
		Workers: 4,
		Run: func(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error) {
			runs.Add(1)
			<-release // hold every early submission in the dedup window
			return fakeResult(bench, cfg.Name), nil
		},
	})

	const N = 16
	var wg sync.WaitGroup
	ids := make([]string, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, code := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test"})
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("submit %d: HTTP %d", i, code)
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(release)
	for _, id := range ids {
		st := waitDone(t, ts.URL, id)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s", id, st.State)
		}
		if res := fetchResult(t, ts.URL, id); res.Cycles != 1000 {
			t.Fatalf("job %s: bad result %+v", id, res)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d submissions caused %d simulations, want 1", N, got)
	}
	if joined := metric(t, ts.URL, "tarserved_dedup_joined_total"); joined != N-1 {
		t.Errorf("dedup_joined = %v, want %d", joined, N-1)
	}
}

// TestCacheHitOnResubmit checks the content-addressed cache: a resubmission
// of a finished experiment is served without a new run and reports
// cache_hit, while a semantically different request (pump off) misses.
func TestCacheHitOnResubmit(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Options{
		Workers: 2,
		Run: func(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error) {
			runs.Add(1)
			return fakeResult(bench, cfg.Name), nil
		},
	})
	st, _ := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test"})
	waitDone(t, ts.URL, st.ID)

	st2, code := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test"})
	if code != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, want 200", code)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("resubmit: cache_hit=%v state=%s", st2.CacheHit, st2.State)
	}
	if st2.Key != st.Key {
		t.Fatalf("same experiment got different keys %s vs %s", st2.Key, st.Key)
	}
	st3, _ := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test", Knobs: map[string]float64{"pump": 0}})
	if st3.CacheHit {
		t.Fatal("pump-off variant hit the base config's cache line")
	}
	waitDone(t, ts.URL, st3.ID)
	if got := runs.Load(); got != 2 {
		t.Fatalf("runs = %d, want 2 (base + pump off)", got)
	}
	if hits := metric(t, ts.URL, "tarserved_cache_hits_total"); hits != 1 {
		t.Errorf("cache_hits = %v, want 1", hits)
	}
}

// TestWedgeMapsTo422 is the satellite's error-surface guarantee: a wedged
// simulation becomes a structured 422 with the WedgeError diagnostics, not
// a 500.
func TestWedgeMapsTo422(t *testing.T) {
	wedge := &sim.WedgeError{Config: "T", Reason: sim.ReasonWatchdog, Cycle: 4242, Window: 100, Retired: 7}
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Run: func(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error) {
			return nil, fmt.Errorf("%s on %s: %w", bench, cfg.Name, wedge)
		},
	})
	st, _ := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test"})
	fin := waitDone(t, ts.URL, st.ID)
	if fin.State != StateFailed || fin.Error == nil || fin.Error.Code != ErrCodeWedge {
		t.Fatalf("status = %+v, want failed/wedge", fin)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 422 {
		t.Fatalf("result endpoint: HTTP %d, want 422", resp.StatusCode)
	}
	var body struct {
		Error ErrorJSON `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != ErrCodeWedge || body.Error.Reason != sim.ReasonWatchdog || body.Error.Cycle != 4242 {
		t.Fatalf("error body = %+v", body.Error)
	}
	if body.Error.Confhash == "" {
		t.Fatal("wedge envelope does not carry the confhash")
	}
	if w := metric(t, ts.URL, "tarserved_jobs_wedged_total"); w != 1 {
		t.Errorf("jobs_wedged = %v, want 1", w)
	}
}

// TestGracefulDrain is the satellite's shutdown guarantee: Drain refuses
// new work with 503 but completes in-flight simulations before returning.
func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Workers: 1,
		Run: func(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error) {
			close(started)
			<-release
			return fakeResult(bench, cfg.Name), nil
		},
	})
	st, _ := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test"})
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Give Drain a moment to flip intake off, then verify rejection.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, code := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "EV8", Scale: "test"})
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions still accepted while draining")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v before the in-flight job finished", err)
	default:
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	fin := waitDone(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("in-flight job state after drain: %s", fin.State)
	}
	resp, _ := http.Get(ts.URL + "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestBadRequests checks the validation surface, including the strict
// decode: a body naming a field SubmitRequest does not have — misspelt, or
// retired like nopump and queue_wait_ms — is refused naming the field.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: func(b string, c *sim.Config, s workloads.Scale) (*workloads.Result, error) {
		return fakeResult(b, c.Name), nil
	}})
	cases := []SubmitRequest{
		{},                               // missing bench
		{Bench: "nope", Config: "T"},     // unknown bench
		{Bench: "dgemm", Config: "EV99"}, // unknown config
		{Bench: "dgemm", Config: "T", Scale: "huge"},                          // unknown scale
		{Bench: "dgemm", Config: "T", FaultSeed: 3, FaultCampaign: "gremlin"}, // unknown campaign
	}
	for i, req := range cases {
		_, code := submit(t, ts.URL, req)
		if code != http.StatusBadRequest {
			t.Errorf("case %d: HTTP %d, want 400", i, code)
		}
	}
	for field, body := range map[string]string{
		"nopump":        `{"bench":"dgemm","config":"T","scale":"test","nopump":true}`,
		"queue_wait_ms": `{"bench":"dgemm","config":"T","scale":"test","queue_wait_ms":100}`,
		"nopmup":        `{"bench":"dgemm","config":"T","scale":"test","nopmup":true}`,
		"knob":          `{"bench":"dgemm","config":"T","scale":"test","knob":{"lanes":8}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
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
		if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != ErrCodeBadRequest || !strings.Contains(envelope.Error.Message, field) {
			t.Errorf("unknown field %s: HTTP %d %+v, want 400 bad_request naming it", field, resp.StatusCode, envelope.Error)
		}
	}
	resp, _ := http.Get(ts.URL + "/v1/jobs/job-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestResultBytesMatchCLIEncoding runs one real (tiny) simulation through
// the HTTP path and checks the /result body is byte-identical to what the
// CLI's -json artifact would emit for the same experiment — same encoding
// types, same content key, same stats.
func TestResultBytesMatchCLIEncoding(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1}) // real simulator
	st, _ := submit(t, ts.URL, SubmitRequest{Bench: "streams_copy", Config: "T", Scale: "test"})
	fin := waitDone(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job failed: %+v", fin.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	apiBytes, _ := io.ReadAll(resp.Body)

	b, err := workloads.Get("streams_copy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(sim.T(), workloads.Test)
	if err != nil {
		t.Fatal(err)
	}
	key := confhash.Key("streams_copy", "test", sim.T())
	var cli bytes.Buffer
	enc := json.NewEncoder(&cli)
	enc.SetIndent("", "  ")
	if err := enc.Encode(EncodeResult(key, res)); err != nil {
		t.Fatal(err)
	}
	// CompareArtifacts rather than bytes.Equal: the artifacts come from two
	// separate executions, so the host-dependent throughput fields differ by
	// design; everything else must match byte for byte.
	if err := CompareArtifacts(apiBytes, cli.Bytes()); err != nil {
		t.Fatalf("API and CLI artifacts differ: %v\nAPI: %s\nCLI: %s", err, apiBytes, cli.Bytes())
	}
	if !strings.Contains(string(apiBytes), fin.Key) {
		t.Fatal("result body does not carry the content key")
	}
}

// TestLRUEviction: the memory-only serve store keeps results in an LRU
// bounded by its entry count (tarserved's -cache).
func TestLRUEviction(t *testing.T) {
	c, err := OpenStore("", 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", artifact("a", "a"))
	c.Put("b", artifact("b", "b"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.Put("c", artifact("c", "c")) // evicts b (a was refreshed by get)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived past the bound")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently-used a was evicted")
	}
	if n := c.Status().MemEntries; n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
}

// TestMetricsQuantiles sanity-checks the latency summary.
func TestMetricsQuantiles(t *testing.T) {
	m := &metrics{}
	for i := 1; i <= 100; i++ {
		m.recordLatency(float64(i) / 100)
	}
	p50, p99, n := m.quantiles()
	if n != 100 {
		t.Fatalf("count %d", n)
	}
	if p50 < 0.45 || p50 > 0.55 {
		t.Errorf("p50 = %v", p50)
	}
	if p99 < 0.95 || p99 > 1.0 {
		t.Errorf("p99 = %v", p99)
	}
	var buf bytes.Buffer
	m.render(&buf, store.Status{Tier: "mem", MemEntries: 3}, 2, 1)
	for _, want := range []string{"tarserved_job_latency_seconds{quantile=\"0.5\"}", "tarserved_store_mem_entries{tier=\"mem\"} 3", "tarserved_workers_alive 2", "tarserved_workers_queue_depth 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestHealthzReportsWorkers: an idle server's /healthz reports ok, the
// pool's worker count and an empty queue.
func TestHealthzReportsWorkers(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 3, Run: func(b string, c *sim.Config, s workloads.Scale) (*workloads.Result, error) {
		return fakeResult(b, c.Name), nil
	}})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status       string `json:"status"`
		WorkersAlive int    `json:"workers_alive"`
		QueueDepth   int    `json:"queue_depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.WorkersAlive != 3 || hz.QueueDepth != 0 {
		t.Fatalf("healthz body = %+v", hz)
	}
}

// TestCompareArtifactsSchemaSkew is the schema-versioning guarantee: the
// byte-equality check between CLI and API artifacts fails loudly — naming
// both versions — when the encodings skew, instead of producing a
// misleading byte diff.
func TestCompareArtifactsSchemaSkew(t *testing.T) {
	res := fakeResult("dgemm", "T")
	good, err := json.Marshal(EncodeResult("cell-1", res))
	if err != nil {
		t.Fatal(err)
	}
	var dec JobResult
	if err := json.Unmarshal(good, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Schema != SchemaVersion {
		t.Fatalf("EncodeResult stamped schema %d, want %d", dec.Schema, SchemaVersion)
	}
	if err := CompareArtifacts(good, good); err != nil {
		t.Fatalf("identical artifacts: %v", err)
	}

	// Same experiment serialized by an older build: only the stamp differs.
	stamp := []byte(fmt.Sprintf(`"schema":%d`, SchemaVersion))
	old := bytes.Replace(good, stamp, []byte(`"schema":1`), 1)
	if bytes.Equal(old, good) {
		t.Fatal("test bug: schema stamp not rewritten")
	}
	err = CompareArtifacts(good, old)
	if err == nil {
		t.Fatal("schema skew not detected")
	}
	for _, want := range []string{"schema skew", fmt.Sprintf("schema %d", SchemaVersion), "schema 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("skew error %q does not mention %q", err, want)
		}
	}

	// A pre-versioning artifact has no stamp at all: that decodes as
	// schema 0 and must also skew, not byte-diff.
	legacy := bytes.Replace(good, append(stamp, ','), nil, 1)
	if err := CompareArtifacts(good, legacy); err == nil || !strings.Contains(err.Error(), "schema skew") {
		t.Fatalf("unversioned artifact: err = %v, want schema skew", err)
	}

	// Same schema, different content: a plain mismatch, not a skew.
	other, _ := json.Marshal(EncodeResult("cell-2", res))
	if err := CompareArtifacts(good, other); err == nil || strings.Contains(err.Error(), "skew") {
		t.Fatalf("content mismatch: err = %v, want plain difference", err)
	}

	if err := CompareArtifacts([]byte("not json"), good); err == nil {
		t.Fatal("garbage artifact accepted")
	}
}

// TestSampledServerCarriesSeries runs a real (tiny) simulation on a server
// with the sampler armed: the result carries the cycle-interval series, the
// content key is unchanged by the sampling knob, and /metrics exposes the
// labeled per-experiment summary with a cache-hit count that moves on
// resubmission.
func TestSampledServerCarriesSeries(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, SampleEvery: 200}) // real simulator
	st, _ := submit(t, ts.URL, SubmitRequest{Bench: "streams_copy", Config: "T", Scale: "test"})
	fin := waitDone(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job failed: %+v", fin.Error)
	}
	if fin.Key != confhash.Key("streams_copy", "test", sim.T()) {
		t.Fatalf("sampling knob changed the content key: %s", fin.Key)
	}
	res := fetchResult(t, ts.URL, st.ID)
	if res.Series == nil || len(res.Series.Points) == 0 {
		t.Fatalf("sampled run returned no series: %+v", res)
	}
	if res.Series.Every != 200 {
		t.Fatalf("series period %d, want 200", res.Series.Every)
	}

	st2, _ := submit(t, ts.URL, SubmitRequest{Bench: "streams_copy", Config: "T", Scale: "test"})
	if !st2.CacheHit {
		t.Fatal("resubmission missed the cache")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	labels := fmt.Sprintf(`{key=%q,bench="streams_copy",config="T"}`, fin.Key)
	for _, name := range []string{
		"tarserved_experiment_cycles", "tarserved_experiment_ipc",
		"tarserved_experiment_sample_points", "tarserved_experiment_cache_hits",
	} {
		if !strings.Contains(string(body), name+labels) {
			t.Errorf("/metrics missing %s%s in:\n%s", name, labels, body)
		}
	}
	re := regexp.MustCompile(`(?m)^tarserved_experiment_cache_hits\{[^}]*\} (\d+)$`)
	m := re.FindSubmatch(body)
	if m == nil || string(m[1]) != "1" {
		t.Errorf("experiment cache_hits = %s, want 1", m)
	}
	re = regexp.MustCompile(`(?m)^tarserved_experiment_sample_points\{[^}]*\} (\d+)$`)
	if m := re.FindSubmatch(body); m == nil || string(m[1]) == "0" {
		t.Errorf("experiment sample_points = %s, want > 0", m)
	}
}
