package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestMain doubles this test binary as the tarworker: when the supervisor
// spawns it with TARWORKER_BE_WORKER=1 it runs the worker protocol instead
// of the test suite. TARWORKER_TEST_DELAY_MS inserts a sleep between the
// hello line and the simulation, giving the SIGKILL drills a deterministic
// window in which the worker is visibly busy.
func TestMain(m *testing.M) {
	if os.Getenv("TARWORKER_BE_WORKER") == "1" {
		var after func()
		if ms, _ := strconv.Atoi(os.Getenv("TARWORKER_TEST_DELAY_MS")); ms > 0 {
			after = func() { time.Sleep(time.Duration(ms) * time.Millisecond) }
		}
		os.Exit(workerRun(os.Stdin, os.Stdout, after))
	}
	os.Exit(m.Run())
}

// newSubprocServer builds a server on a subprocess fleet whose workers are
// re-executions of this test binary.
func newSubprocServer(t *testing.T, workers, delayMs int, fcfg *faults.Config) (*Server, *httptest.Server, *SubprocessBackend) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	env := append(os.Environ(), "TARWORKER_BE_WORKER=1")
	if delayMs > 0 {
		env = append(env, fmt.Sprintf("TARWORKER_TEST_DELAY_MS=%d", delayMs))
	}
	be, err := NewSubprocessBackend(SubprocessOptions{
		WorkerBin: exe,
		Workers:   workers,
		Env:       env,
		Faults:    fcfg,
		Retry:     RetryPolicy{MaxRetries: 2, BackoffBase: 10 * time.Millisecond},
		Stderr:    io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: workers, Backend: be})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts, be
}

// TestWorkerProtocol drives WorkerMain directly: one spec in, a hello line
// and an ok reply out, with the result keyed and schema-stamped.
func TestWorkerProtocol(t *testing.T) {
	spec := JobSpec{Bench: "streams_copy", Config: "T", Scale: "test"}
	in, _ := json.Marshal(spec)
	var out bytes.Buffer
	if code := WorkerMain(bytes.NewReader(in), &out); code != 0 {
		t.Fatalf("worker exit %d, output:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("worker wrote %d lines, want 2:\n%s", len(lines), out.String())
	}
	var h workerHello
	if err := json.Unmarshal([]byte(lines[0]), &h); err != nil || h.Event != "start" || h.Schema != SchemaVersion {
		t.Fatalf("bad hello %q (err %v)", lines[0], err)
	}
	var r workerReply
	if err := json.Unmarshal([]byte(lines[1]), &r); err != nil || !r.OK || r.Result == nil {
		t.Fatalf("bad reply %q (err %v)", lines[1], err)
	}
	if r.Result.Schema != SchemaVersion || r.Result.Bench != "streams_copy" || r.Result.Key == "" {
		t.Fatalf("bad result %+v", r.Result)
	}
}

// TestWorkerProtocolBadSpec: an invalid spec comes back as a structured
// envelope over the protocol (exit 0), not a process failure.
func TestWorkerProtocolBadSpec(t *testing.T) {
	in, _ := json.Marshal(JobSpec{Bench: "no-such-bench", Config: "T", Scale: "test"})
	var out bytes.Buffer
	if code := WorkerMain(bytes.NewReader(in), &out); code != 0 {
		t.Fatalf("worker exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r workerReply
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if r.OK || r.Error == nil || r.Error.Code != ErrCodeBadRequest || r.Status != 400 {
		t.Fatalf("bad-spec reply = %+v", r)
	}
}

// TestSubprocessBackendE2E: a real job through the fleet, plus gauge and
// healthz checks.
func TestSubprocessBackendE2E(t *testing.T) {
	_, ts, _ := newSubprocServer(t, 2, 0, nil)
	st, _ := submit(t, ts.URL, SubmitRequest{Bench: "streams_copy", Config: "T", Scale: "test"})
	fin := waitDone(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job failed: %+v", fin.Error)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	var hz struct {
		Status       string `json:"status"`
		Backend      string `json:"backend"`
		WorkersAlive int    `json:"workers_alive"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Backend != "subprocess" || hz.Status != "ok" || hz.WorkersAlive == 0 {
		t.Fatalf("healthz body = %+v", hz)
	}
	if alive := metric(t, ts.URL, "tarserved_workers_alive"); alive == 0 {
		t.Error("workers_alive gauge is 0")
	}
}

// TestSubprocessWorkerSIGKILLMidJob is the headline resilience drill: a
// busy worker is SIGKILLed mid-job from outside; the job must be retried on
// another worker and still complete, the client sees 200, and the server
// keeps serving.
func TestSubprocessWorkerSIGKILLMidJob(t *testing.T) {
	_, ts, be := newSubprocServer(t, 2, 800, nil)
	st, _ := submit(t, ts.URL, SubmitRequest{Bench: "streams_copy", Config: "T", Scale: "test"})

	// The delay hook holds the worker visibly busy; aim at its pid.
	var pid int
	deadline := time.Now().Add(10 * time.Second)
	for pid == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no worker went busy")
		}
		if pids := be.busyPids(); len(pids) > 0 {
			pid = pids[0]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatalf("kill %d: %v", pid, err)
	}

	fin := waitDone(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("killed job did not recover: %+v", fin.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result after retry: HTTP %d, want 200", resp.StatusCode)
	}
	if r := metric(t, ts.URL, "tarserved_workers_retries"); r < 1 {
		t.Errorf("workers_retries = %v, want >= 1", r)
	}
	if r := metric(t, ts.URL, "tarserved_workers_restarts"); r < 1 {
		t.Errorf("workers_restarts = %v, want >= 1", r)
	}
	// The fleet still serves: a fresh job completes.
	st2, _ := submit(t, ts.URL, SubmitRequest{Bench: "streams_copy", Config: "EV8", Scale: "test"})
	if fin2 := waitDone(t, ts.URL, st2.ID); fin2.State != StateDone {
		t.Fatalf("post-kill job failed: %+v", fin2.Error)
	}
}

// TestSubprocessFaultCampaignKill drives the same drill through the faults
// harness: a WorkerKiller campaign SIGKILLs the targeted cell's worker on
// its first attempt, and the retry completes the job.
func TestSubprocessFaultCampaignKill(t *testing.T) {
	_, ts, _ := newSubprocServer(t, 2, 0, faults.WorkerKiller("streams_copy@T"))
	st, _ := submit(t, ts.URL, SubmitRequest{Bench: "streams_copy", Config: "T", Scale: "test"})
	fin := waitDone(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("targeted job did not recover: %+v", fin.Error)
	}
	if r := metric(t, ts.URL, "tarserved_workers_retries"); r < 1 {
		t.Errorf("workers_retries = %v, want >= 1", r)
	}
	// An untargeted cell is untouched: no further retries accrue.
	before := metric(t, ts.URL, "tarserved_workers_retries")
	st2, _ := submit(t, ts.URL, SubmitRequest{Bench: "streams_copy", Config: "EV8", Scale: "test"})
	if fin2 := waitDone(t, ts.URL, st2.ID); fin2.State != StateDone {
		t.Fatalf("untargeted job failed: %+v", fin2.Error)
	}
	if after := metric(t, ts.URL, "tarserved_workers_retries"); after != before {
		t.Errorf("untargeted cell accrued retries: %v -> %v", before, after)
	}
}

// TestCrossBackendByteEquality is the tentpole's correctness contract: the
// same submission produces byte-identical /result artifacts whether it ran
// in-process or in a subprocess worker.
func TestCrossBackendByteEquality(t *testing.T) {
	fetch := func(ts *httptest.Server) []byte {
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
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	_, inproc := newTestServer(t, Options{Workers: 1}) // real simulator
	_, subproc, _ := newSubprocServer(t, 1, 0, nil)
	a, b := fetch(inproc), fetch(subproc)
	if err := CompareArtifacts(a, b); err != nil {
		t.Fatalf("backends disagree: %v\ninprocess: %s\nsubprocess: %s", err, a, b)
	}
}

// TestRetryPolicyDelay pins the backoff schedule: exponential from the
// base, capped at the max.
func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{BackoffBase: 100 * time.Millisecond, BackoffMax: 5 * time.Second}.withDefaults()
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 3200 * time.Millisecond,
		5 * time.Second, 5 * time.Second,
	}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestRetryCrashesBackoffAndCap drives the requeue loop with a fake clock:
// a job that kills every worker it touches is retried with exponential
// backoff, then fails with code "worker_crash" and its attempt count.
func TestRetryCrashesBackoffAndCap(t *testing.T) {
	var sleeps []time.Duration
	sleep := func(d time.Duration) { sleeps = append(sleeps, d) }
	p := RetryPolicy{MaxRetries: 3, BackoffBase: 50 * time.Millisecond, BackoffMax: 100 * time.Millisecond}

	attempts := 0
	_, err := retryCrashes(p, sleep, func(try int) (*workloads.Result, bool, error) {
		if try != attempts {
			t.Errorf("attempt counter skew: try=%d attempts=%d", try, attempts)
		}
		attempts++
		return nil, true, fmt.Errorf("worker died (attempt %d)", try)
	})
	if attempts != 4 {
		t.Errorf("attempts = %d, want 4 (1 + MaxRetries)", attempts)
	}
	wantSleeps := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond}
	if len(sleeps) != len(wantSleeps) {
		t.Fatalf("sleeps = %v, want %v", sleeps, wantSleeps)
	}
	for i, w := range wantSleeps {
		if sleeps[i] != w {
			t.Errorf("sleep %d = %v, want %v", i, sleeps[i], w)
		}
	}
	je, ok := err.(*JobError)
	if !ok {
		t.Fatalf("error type %T, want *JobError", err)
	}
	if je.Status != 500 || je.JSON.Code != ErrCodeWorkerCrash || je.JSON.Attempts != 4 {
		t.Fatalf("exhausted-retries error = %+v", je)
	}
}

// TestRetryCrashesRecoversAndPassesThrough: one crash then success costs
// exactly one backoff; a non-retryable failure is returned untouched with
// no sleeping at all.
func TestRetryCrashesRecoversAndPassesThrough(t *testing.T) {
	var sleeps []time.Duration
	sleep := func(d time.Duration) { sleeps = append(sleeps, d) }
	p := RetryPolicy{MaxRetries: 2, BackoffBase: 10 * time.Millisecond}

	res, err := retryCrashes(p, sleep, func(try int) (*workloads.Result, bool, error) {
		if try == 0 {
			return nil, true, fmt.Errorf("worker died")
		}
		return fakeResult("dgemm", "T"), false, nil
	})
	if err != nil || res == nil {
		t.Fatalf("recovery failed: res=%v err=%v", res, err)
	}
	if len(sleeps) != 1 {
		t.Fatalf("sleeps = %v, want exactly one backoff", sleeps)
	}

	sleeps = nil
	wedge := &JobError{Status: 422, JSON: ErrorJSON{Code: ErrCodeWedge, Message: "wedged"}}
	_, err = retryCrashes(p, sleep, func(try int) (*workloads.Result, bool, error) {
		return nil, false, wedge
	})
	if err != wedge {
		t.Fatalf("non-retryable error rewritten: %v", err)
	}
	if len(sleeps) != 0 {
		t.Fatalf("non-retryable failure slept: %v", sleeps)
	}
}

// fakeBackend lets healthz tests dial in arbitrary fleet states.
type fakeBackend struct {
	kind  string
	alive int
}

func (f *fakeBackend) Kind() string { return f.kind }
func (f *fakeBackend) Execute(spec *JobSpec) (*workloads.Result, error) {
	return fakeResult(spec.Bench, spec.Config), nil
}
func (f *fakeBackend) Workers() WorkerStats { return WorkerStats{Alive: f.alive} }
func (f *fakeBackend) Close()               {}

// TestHealthzDegradedWhenNoWorkers: a fleet with zero live workers must
// fail its health check even though the HTTP surface is up.
func TestHealthzDegradedWhenNoWorkers(t *testing.T) {
	fb := &fakeBackend{kind: "subprocess", alive: 0}
	_, ts := newTestServer(t, Options{Workers: 1, Backend: fb})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead fleet: HTTP %d, want 503", resp.StatusCode)
	}
	var hz struct {
		Status  string `json:"status"`
		Backend string `json:"backend"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.Backend != "subprocess" {
		t.Fatalf("healthz body = %+v", hz)
	}
}

// TestHealthzReportsBackend: the in-process default reports its kind and
// slot count.
func TestHealthzReportsBackend(t *testing.T) {
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
		Backend      string `json:"backend"`
		WorkersAlive int    `json:"workers_alive"`
		QueueDepth   int    `json:"queue_depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Backend != "inprocess" || hz.WorkersAlive != 3 {
		t.Fatalf("healthz body = %+v", hz)
	}
}
