package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vasm"
	"repro/internal/workloads"
)

// ---- disk store ----
//
// Byte-level store mechanics (eviction atime ordering, torn-write chaos)
// live in internal/store. The tests here pin the serve-layer contract on
// top of it: artifact encoding, on-disk layout, and the decoded round trip
// through putResult and getResult.

// artifactPath is the serve layer's on-disk layout contract: one result
// artifact per file, under a schema-versioned directory. External tooling
// (and the CI smoke jobs) depend on these literal paths.
func artifactPath(dir, key string) string {
	return filepath.Join(dir, fmt.Sprintf("schema-%d", SchemaVersion), key+".json")
}

// TestDiskStoreRoundTripAndWarmStart: a put survives a process "restart"
// (reopening the store on the same directory) and is served back decoded —
// the crash-recovery primitive everything else builds on.
func TestDiskStoreRoundTripAndWarmStart(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	putResult(d, EncodeResult("aaaa1111", fakeResult("dgemm", "T")))
	putResult(d, EncodeResult("bbbb2222", fakeResult("streams_copy", "T")))
	if n := storeStatus(d.Status()).MemEntries; n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	if _, ok := getResult(d, "aaaa1111"); !ok {
		t.Fatal("get missed a just-put artifact")
	}
	d.Close()

	// "Restart": a second store on the same directory must validate and
	// serve everything the first one persisted.
	d2, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := storeStatus(d2.Status())
	if st.WarmStart != 2 || st.DiskEntries != 2 || st.Quarantined != 0 {
		t.Fatalf("warm-start status = %+v", st)
	}
	res, ok := getResult(d2, "aaaa1111")
	if !ok || res.Bench != "dgemm" {
		t.Fatalf("warm-started get = %+v ok=%v", res, ok)
	}
	// The decoded result must re-encode to the same artifact bytes the
	// first process wrote, at the documented on-disk path.
	disk, err := os.ReadFile(artifactPath(dir, "aaaa1111"))
	if err != nil {
		t.Fatal(err)
	}
	reenc, _ := json.Marshal(res)
	if !bytes.Equal(disk, reenc) {
		t.Fatalf("artifact not byte-stable across restart:\ndisk: %s\nre-encoded: %s", disk, reenc)
	}
}

// corruptions is the deterministic corruption table shared by the loader
// test and the fuzz seed corpus: each entry turns a valid artifact into
// something the decoder must quarantine, never serve, never panic on.
var corruptions = []struct {
	name string
	mut  func(valid []byte) []byte
}{
	{"truncated", func(v []byte) []byte { return v[:len(v)/2] }},
	{"bitflip", func(v []byte) []byte {
		c := append([]byte(nil), v...)
		c[len(c)/3] ^= 0x40 // breaks JSON syntax or silently skews a field name
		return c
	}},
	{"wrong_schema", func(v []byte) []byte {
		return bytes.Replace(v, []byte(fmt.Sprintf(`"schema": %d`, SchemaVersion)), []byte(`"schema": 999`), 1)
	}},
	{"garbage", func(v []byte) []byte { return []byte("\x00\xffnot json at all") }},
	{"empty", func(v []byte) []byte { return nil }},
}

// TestDiskStoreCorruptionQuarantine plants every corruption in the table
// on disk and asserts the loader quarantines it at open: counted, moved to
// the quarantine directory, never part of the warm start, never served.
func TestDiskStoreCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	putResult(d, EncodeResult("good0000", fakeResult("dgemm", "T")))
	putResult(d, EncodeResult("good1111", fakeResult("streams_copy", "T")))
	d.Close()
	valid, err := os.ReadFile(artifactPath(dir, "good0000"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corruptions {
		key := "bad_" + c.name
		if err := os.WriteFile(artifactPath(dir, key), c.mut(valid), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A key mismatch: valid bytes filed under the wrong content address.
	if err := os.WriteFile(artifactPath(dir, "bad_keyskew"), valid, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatalf("corrupt files must not fail the open: %v", err)
	}
	st := storeStatus(d2.Status())
	wantQuar := uint64(len(corruptions) + 1)
	if st.Quarantined != wantQuar || st.WarmStart != 2 || st.DiskEntries != 2 {
		t.Fatalf("status after corrupt open = %+v, want %d quarantined / 2 warm", st, wantQuar)
	}
	for _, c := range corruptions {
		if _, ok := getResult(d2, "bad_"+c.name); ok {
			t.Fatalf("corrupt artifact %q was served", c.name)
		}
	}
	if _, ok := getResult(d2, "good0000"); !ok {
		t.Fatal("valid artifact lost in the corrupt sweep")
	}
	quar, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(quar) == 0 {
		t.Fatal("quarantine directory is empty")
	}

	// Corruption landing after the open (torn write racing a crash) is
	// caught at read time: quarantined then, not served. good1111 has not
	// been read since the reopen, so its bytes are not shadowed by the
	// memory tier.
	if err := os.WriteFile(artifactPath(dir, "good1111"), valid[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := getResult(d2, "good1111"); ok {
		t.Fatal("post-open corruption was served")
	}
	if got := storeStatus(d2.Status()).Quarantined; got != wantQuar+1 {
		t.Fatalf("read-time quarantine not counted: %d, want %d", got, wantQuar+1)
	}
}

// FuzzDiskArtifactDecode hammers the artifact decoder with mutated bytes:
// whatever the input, it must return a result or an error — never panic,
// never accept bytes that contradict their content address.
func FuzzDiskArtifactDecode(f *testing.F) {
	valid, err := json.Marshal(EncodeResult("fuzzkey0", fakeResult("dgemm", "T")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, c := range corruptions {
		f.Add(c.mut(valid))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		res, err := decodeArtifact("fuzzkey0", raw)
		if err != nil {
			return
		}
		if res == nil || res.Stats == nil {
			t.Fatalf("decode accepted %q but returned res=%v", raw, res)
		}
		var jr JobResult
		if json.Unmarshal(raw, &jr) != nil || jr.Key != "fuzzkey0" || jr.Schema != SchemaVersion {
			t.Fatalf("decode accepted bytes that contradict their address: %q", raw)
		}
	})
}

// TestTieredStoreSingleFlight is the lru single-flight regression test:
// concurrent Put and Get traffic on one confhash (the exact shape of a
// result completing while a warm-start load is in flight) must neither
// drop the artifact nor tear it, and the disk tier ends with exactly one
// copy. Run under -race in CI.
func TestTieredStoreSingleFlight(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := fakeResult("dgemm", "T")
	const key = "cafe0123"

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				if i%2 == 0 {
					putResult(db, EncodeResult(key, res))
				} else if got, ok := getResult(db, key); ok && got.Bench != "dgemm" {
					t.Errorf("torn read: %+v", got)
				}
			}
		}(i)
	}
	wg.Wait()
	got, ok := getResult(db, key)
	if !ok || got.Bench != "dgemm" {
		t.Fatalf("artifact lost after concurrent traffic: %+v ok=%v", got, ok)
	}
	if st := db.Status(); st.Tier != "mem+disk" || st.IOErrors != 0 {
		t.Fatalf("tiered status = %+v", st)
	}
	db.Close()
	// The disk tier ends with exactly one copy: a reopen warm-starts
	// exactly one artifact.
	reopened, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := storeStatus(reopened.Status()); st.DiskEntries != 1 || st.WarmStart != 1 {
		t.Fatalf("disk tier after concurrent traffic = %+v, want exactly 1 entry", st)
	}
}

// TestChaosDiskStore writes through the serve store under the DiskChaos
// campaign (injected write errors and torn writes), then "restarts" onto
// the same directory with chaos off: the recovery scan must quarantine
// every torn artifact, warm-start the rest, and serve only valid decoded
// results. (The byte-level chaos drill on the bare disk tier — where the
// memory tier cannot mask read faults — lives in internal/store.)
func TestChaosDiskStore(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenStore(dir, 16, 0, faults.DiskChaos(7))
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		putResult(d, EncodeResult(fmt.Sprintf("chaos%02d", i), fakeResult("dgemm", "T")))
	}
	if st := d.Status(); st.IOErrors == 0 {
		t.Fatalf("chaos campaign injected no I/O errors: %+v", st)
	}
	d.Close()

	d2, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	st := storeStatus(d2.Status())
	if st.Quarantined == 0 {
		t.Fatalf("no torn write reached the quarantine path: %+v", st)
	}
	served := 0
	for i := 0; i < n; i++ {
		res, ok := getResult(d2, fmt.Sprintf("chaos%02d", i))
		if !ok {
			continue // lost to an injected write error or torn — an honest miss
		}
		served++
		if res.Bench != "dgemm" || res.Stats == nil || res.Stats.Cycles != 1000 {
			t.Fatalf("chaos store served a corrupt artifact: %+v", res)
		}
	}
	if served == 0 {
		t.Fatal("chaos store never served anything — campaign too hot to be a test")
	}
	if served != st.WarmStart {
		t.Fatalf("served %d but warm-started %d", served, st.WarmStart)
	}
}

// ---- server restart recovery ----

// TestRestartRecoveryE2E is the acceptance drill: a server on a disk-backed
// store completes real simulations, drains, and a fresh server on the same
// directory answers the same submissions from the warm-started store — no
// re-simulation, byte-identical artifacts under CompareArtifacts.
func TestRestartRecoveryE2E(t *testing.T) {
	dir := t.TempDir()
	cells := []SubmitRequest{
		{Bench: "streams_copy", Config: "T", Scale: "test"},
		{Bench: "dgemm", Config: "T", Scale: "test"},
	}

	store1, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Options{Workers: 2, Store: store1})
	first := make(map[string][]byte)
	for _, c := range cells {
		st, _ := submit(t, ts1.URL, c)
		fin := waitDone(t, ts1.URL, st.ID)
		if fin.State != StateDone {
			t.Fatalf("cell %s failed: %+v", c.Bench, fin.Error)
		}
		resp, err := http.Get(ts1.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		first[fin.Key] = raw
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	s1.Drain(ctx)
	cancel()

	// The "restarted" process: fresh server, fresh store object, same dir.
	store2, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := storeStatus(store2.Status()); st.WarmStart != len(cells) {
		t.Fatalf("warm start recovered %d artifacts, want %d: %+v", st.WarmStart, len(cells), st)
	}
	_, ts2 := newTestServer(t, Options{Workers: 2, Store: store2})
	for _, c := range cells {
		st, _ := submit(t, ts2.URL, c)
		if st.State != StateDone || !st.CacheHit {
			t.Fatalf("restarted server re-simulated %s: %+v", c.Bench, st)
		}
		resp, err := http.Get(ts2.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := CompareArtifacts(first[st.Key], raw); err != nil {
			t.Fatalf("artifact skewed across restart: %v", err)
		}
		if !bytes.Equal(first[st.Key], raw) {
			t.Fatalf("restart artifact not byte-identical:\nbefore: %s\nafter: %s", first[st.Key], raw)
		}
	}
	if got := metric(t, ts2.URL, "tarserved_sims_started_total"); got != 0 {
		t.Fatalf("restarted server ran %v simulations, want 0", got)
	}
	if got := metric(t, ts2.URL, `tarserved_store_warm_hits{tier="mem+disk"}`); got != float64(len(cells)) {
		t.Fatalf("warm hits = %v, want %d", got, len(cells))
	}
}

// ---- overload protection ----

// TestOverloadSheddingAndAdmission drives a one-worker server 5× over
// capacity: the queued jobs' deadlines expire and they are shed promptly
// with the closed envelope code "deadline_exceeded" (never a hang), the
// admission controller then refuses new work up front with "queue_full" +
// Retry-After once the EWMA says the wait is hopeless, and after drain the
// process has not leaked goroutines.
func TestOverloadSheddingAndAdmission(t *testing.T) {
	g0 := runtime.NumGoroutine()
	var gate atomic.Pointer[chan struct{}]
	ch1 := make(chan struct{})
	gate.Store(&ch1)
	s, ts := newTestServer(t, Options{
		Workers:   1,
		QueueWait: 150 * time.Millisecond,
		Run: func(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error) {
			if ch := gate.Load(); ch != nil {
				<-*ch
			}
			return fakeResult(bench, cfg.Name), nil
		},
	})

	// Job 0 occupies the only worker; jobs 1..4 queue behind it with no
	// hope of starting inside their wait budget. Distinct fault seeds give
	// distinct confhashes, so nothing deduplicates.
	lead, _ := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test", FaultSeed: 1})
	shedIDs := make([]string, 0, 4)
	for i := 2; i <= 5; i++ {
		st, code := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test", FaultSeed: int64(i)})
		if code != http.StatusAccepted {
			t.Fatalf("job %d not accepted: HTTP %d", i, code)
		}
		shedIDs = append(shedIDs, st.ID)
	}
	for _, id := range shedIDs {
		start := time.Now()
		fin := waitDone(t, ts.URL, id)
		if fin.State != StateFailed || fin.Error == nil || fin.Error.Code != ErrCodeDeadlineExceeded {
			t.Fatalf("queued job %s not shed structurally: %+v", id, fin)
		}
		if fin.Error.Confhash == "" {
			t.Fatal("shed envelope missing confhash")
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("shed took %v — queue wait is not bounded", waited)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("shed result HTTP %d, want 504", resp.StatusCode)
		}
	}
	if got := metric(t, ts.URL, "tarserved_shed_deadline_total"); got != 4 {
		t.Fatalf("shed_deadline_total = %v, want 4", got)
	}

	// Release the leader; its long execution seeds the EWMA.
	gate.Store(nil)
	close(ch1)
	if fin := waitDone(t, ts.URL, lead.ID); fin.State != StateDone {
		t.Fatalf("leader failed: %+v", fin)
	}

	// Occupy the worker again: with the EWMA in the hundreds of
	// milliseconds and a 150ms budget, the next submission must be turned
	// away at the door with a capacity estimate.
	ch2 := make(chan struct{})
	gate.Store(&ch2)
	busy, _ := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test", FaultSeed: 6})
	waitForRunning(t, ts.URL, busy.ID)
	body, _ := json.Marshal(SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test", FaultSeed: 7})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error ErrorJSON `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || envelope.Error.Code != ErrCodeQueueFull {
		t.Fatalf("admission rejection = HTTP %d %+v, want 503 queue_full", resp.StatusCode, envelope.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue_full rejection carries no Retry-After header")
	}
	if got := metric(t, ts.URL, "tarserved_shed_queue_full_total"); got != 1 {
		t.Fatalf("shed_queue_full_total = %v, want 1", got)
	}
	gate.Store(nil)
	close(ch2)
	waitDone(t, ts.URL, busy.ID)

	// Drain and verify the goroutine census returns to baseline: shed
	// flights left in the channel, the janitor and the worker all exit.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		// Keep-alive connection goroutines (client transport + httptest
		// server) are test plumbing, not server leaks — reap them so the
		// census sees only what Drain is responsible for.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if runtime.NumGoroutine() <= g0+3 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked under overload: started with %d, still at %d after drain", g0, runtime.NumGoroutine())
}

// waitForRunning polls until a job leaves the queued state.
func waitForRunning(t *testing.T, url, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// TestQueueWaitRequestClamp: a request may tighten its queue-wait budget
// below the server bound but never loosen it past the bound.
func TestQueueWaitRequestClamp(t *testing.T) {
	s := New(Options{Workers: 1, QueueWait: 100 * time.Millisecond, Run: func(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error) {
		return fakeResult(bench, cfg.Name), nil
	}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	if got := s.queueWaitFor(&SubmitRequest{}); got != 100*time.Millisecond {
		t.Fatalf("default wait = %v", got)
	}
	if got := s.queueWaitFor(&SubmitRequest{QueueWaitMs: 40}); got != 40*time.Millisecond {
		t.Fatalf("tightened wait = %v", got)
	}
	if got := s.queueWaitFor(&SubmitRequest{QueueWaitMs: 400}); got != 100*time.Millisecond {
		t.Fatalf("loosened wait not clamped: %v", got)
	}
	sOff := New(Options{Workers: 1, Run: func(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error) {
		return fakeResult(bench, cfg.Name), nil
	}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sOff.Drain(ctx)
	}()
	if got := sOff.queueWaitFor(&SubmitRequest{QueueWaitMs: 40}); got != 0 {
		t.Fatalf("disabled shedding still produced a wait bound: %v", got)
	}
}

// TestStalledKernelFreesItsWorker: a kernel that stops calling the
// Builder blocks the chip loop inside the trace, where no deadline poll
// runs. The simulator must still fail the job at its deadline with a wedge,
// and the pool's one worker must then be free to run the next job.
func TestStalledKernelFreesItsWorker(t *testing.T) {
	var stalled atomic.Bool
	stalled.Store(true)
	var runs atomic.Int64
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Run: func(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error) {
			if runs.Add(1) > 1 {
				return fakeResult(bench, cfg.Name), nil
			}
			out, err := sim.Execute(sim.RunSpec{Config: cfg, Kernel: func(b *vasm.Builder) {
				b.Li(isa.R(1), 1)
				for stalled.Load() {
					runtime.Gosched()
				}
			}})
			if err == nil {
				err = fmt.Errorf("stalled kernel completed at cycle %d", out.Stats.Cycles)
			}
			return nil, err
		},
	})
	t.Cleanup(func() { stalled.Store(false) })

	st, _ := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test", DeadlineMs: 200})
	if fin := waitDone(t, ts.URL, st.ID); fin.State != StateFailed {
		t.Fatalf("stalled job = %+v, want failed", fin)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error ErrorJSON `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || body.Error.Code != ErrCodeWedge || body.Error.Reason != sim.ReasonDeadline {
		t.Fatalf("stalled job result = HTTP %d %+v, want 422 wedge/%s", resp.StatusCode, body.Error, sim.ReasonDeadline)
	}

	next, _ := submit(t, ts.URL, SubmitRequest{Bench: "streams_copy", Config: "T", Scale: "test"})
	if fin := waitDone(t, ts.URL, next.ID); fin.State != StateDone {
		t.Fatalf("job after the stalled one = %+v, want done", fin)
	}
}
