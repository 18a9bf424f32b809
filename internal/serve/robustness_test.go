package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
// top of it: artifact encoding and validation, the on-disk layout, and the
// stored bytes served back unchanged.

// artifactPath is the serve layer's on-disk layout contract: one result
// artifact per file, under a schema-versioned directory. External tooling
// (and the CI smoke jobs) depend on these literal paths.
func artifactPath(dir, key string) string {
	return filepath.Join(dir, fmt.Sprintf("schema-%d", SchemaVersion), key+".json")
}

// TestDiskStoreRoundTripAndWarmStart: a put survives a process "restart"
// (reopening the store on the same directory) and is served back
// byte-identical — the crash-recovery primitive everything else builds on.
func TestDiskStoreRoundTripAndWarmStart(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := artifact("aaaa1111", "dgemm")
	d.Put("aaaa1111", want)
	d.Put("bbbb2222", artifact("bbbb2222", "streams_copy"))
	if n := d.Status().MemEntries; n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	if _, ok := d.Get("aaaa1111"); !ok {
		t.Fatal("get missed a just-put artifact")
	}
	d.Close()

	// "Restart": a second store on the same directory must validate and
	// serve everything the first one persisted.
	d2, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := d2.Status(); st.WarmStart != 2 || st.DiskEntries != 2 || st.Quarantined != 0 {
		t.Fatalf("warm-start status = %+v", st)
	}
	got, ok := d2.Get("aaaa1111")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("warm-started get = %s ok=%v, want %s", got, ok, want)
	}
	// The first process wrote those bytes at the documented on-disk path.
	disk, err := os.ReadFile(artifactPath(dir, "aaaa1111"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, want) {
		t.Fatalf("on-disk artifact differs from the put:\ndisk: %s\nput: %s", disk, want)
	}
}

// TestStoreOpensParentLayout: a store directory written by a build that
// also kept warm-up snapshots (results under schema-4/, chip snapshots
// under snapshots/schema-2/) opens cleanly. Every result warm-starts,
// nothing is quarantined, no I/O error is counted, and the snapshots/ tree
// is left exactly as it was.
func TestStoreOpensParentLayout(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"aaaa1111", "bbbb2222", "cccc3333"}
	for _, key := range keys {
		path := artifactPath(dir, key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, artifact(key, "dgemm"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap := filepath.Join(dir, "snapshots", "schema-2", "dddd4444eeee5555ffff6666aaaa7777.snap")
	blob := []byte("TARSNAP\x00 stands in for a chip snapshot")
	if err := os.MkdirAll(filepath.Dir(snap), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if st := d.Status(); st.WarmStart != len(keys) || st.Quarantined != 0 || st.IOErrors != 0 {
		t.Fatalf("status over the parent's layout = %+v, want %d warm, none quarantined, no I/O errors", st, len(keys))
	}
	for _, key := range keys {
		if got, ok := d.Get(key); !ok || !bytes.Equal(got, artifact(key, "dgemm")) {
			t.Errorf("result %s not served from the parent's layout", key)
		}
	}
	var tree []string
	filepath.WalkDir(filepath.Join(dir, "snapshots"), func(path string, _ fs.DirEntry, err error) error {
		if err != nil {
			t.Error(err)
		}
		tree = append(tree, path)
		return nil
	})
	if want := []string{filepath.Join(dir, "snapshots"), filepath.Dir(snap), snap}; strings.Join(tree, " ") != strings.Join(want, " ") {
		t.Errorf("snapshots/ tree = %v, want it untouched: %v", tree, want)
	}
	if got, err := os.ReadFile(snap); err != nil || !bytes.Equal(got, blob) {
		t.Errorf("snapshot blob changed: %q, %v", got, err)
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
		return bytes.Replace(v, []byte(fmt.Sprintf(`"schema":%d`, SchemaVersion)), []byte(`"schema":999`), 1)
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
	d.Put("good0000", artifact("good0000", "dgemm"))
	d.Put("good1111", artifact("good1111", "streams_copy"))
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
	st := d2.Status()
	wantQuar := uint64(len(corruptions) + 1)
	if st.Quarantined != wantQuar || st.WarmStart != 2 || st.DiskEntries != 2 {
		t.Fatalf("status after corrupt open = %+v, want %d quarantined / 2 warm", st, wantQuar)
	}
	for _, c := range corruptions {
		if _, ok := d2.Get("bad_" + c.name); ok {
			t.Fatalf("corrupt artifact %q was served", c.name)
		}
	}
	if _, ok := d2.Get("good0000"); !ok {
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
	if _, ok := d2.Get("good1111"); ok {
		t.Fatal("post-open corruption was served")
	}
	if got := d2.Status().Quarantined; got != wantQuar+1 {
		t.Fatalf("read-time quarantine not counted: %d, want %d", got, wantQuar+1)
	}
}

// FuzzDiskArtifactDecode hammers the artifact decoder with mutated bytes:
// whatever the input, it must return a result or an error — never panic,
// never accept bytes that contradict their content address.
func FuzzDiskArtifactDecode(f *testing.F) {
	valid := artifact("fuzzkey0", "dgemm")
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
	const key = "cafe0123"
	blob := artifact(key, "dgemm")

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				if i%2 == 0 {
					db.Put(key, blob)
				} else if got, ok := db.Get(key); ok && !bytes.Equal(got, blob) {
					t.Errorf("torn read: %s", got)
				}
			}
		}(i)
	}
	wg.Wait()
	got, ok := db.Get(key)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("artifact lost after concurrent traffic: %s ok=%v", got, ok)
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
	if st := reopened.Status(); st.DiskEntries != 1 || st.WarmStart != 1 {
		t.Fatalf("disk tier after concurrent traffic = %+v, want exactly 1 entry", st)
	}
}

// TestChaosDiskStore writes through the serve store under the DiskChaos
// campaign (injected write errors and torn writes), then "restarts" onto
// the same directory with chaos off: the recovery scan must quarantine
// every torn artifact, warm-start the rest, and serve only the bytes that
// were put. (The byte-level chaos drill on the bare disk tier — where the
// memory tier cannot mask read faults — lives in internal/store.)
func TestChaosDiskStore(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenStore(dir, 16, 0, faults.DiskChaos(7))
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("chaos%02d", i)
		d.Put(key, artifact(key, "dgemm"))
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
	st := d2.Status()
	if st.Quarantined == 0 {
		t.Fatalf("no torn write reached the quarantine path: %+v", st)
	}
	served := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("chaos%02d", i)
		raw, ok := d2.Get(key)
		if !ok {
			continue // lost to an injected write error or torn — an honest miss
		}
		served++
		if !bytes.Equal(raw, artifact(key, "dgemm")) {
			t.Fatalf("chaos store served a corrupt artifact: %s", raw)
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
	if st := store2.Status(); st.WarmStart != len(cells) {
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

// ---- backpressure ----

// TestQueueFullRefusal: the bounded queue is the server's one
// backpressure. With one worker busy and the one queue slot taken, a third
// distinct job is refused with 503 queue_full and Retry-After; the two
// accepted jobs still both finish (a queued job is never shed), and after
// drain the process has not leaked goroutines.
func TestQueueFullRefusal(t *testing.T) {
	g0 := runtime.NumGoroutine()
	gate := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 1,
		Run: func(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error) {
			<-gate
			return fakeResult(bench, cfg.Name), nil
		},
	})

	// Distinct fault seeds give distinct confhashes, so nothing
	// deduplicates: the first job occupies the worker, the second the
	// queue's one slot.
	running, _ := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test", FaultSeed: 1})
	waitForRunning(t, ts.URL, running.ID)
	queued, code := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test", FaultSeed: 2})
	if code != http.StatusAccepted || queued.State != StateQueued {
		t.Fatalf("second job = HTTP %d %+v, want 202 queued", code, queued)
	}

	body, _ := json.Marshal(SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test", FaultSeed: 3})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
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
	if resp.StatusCode != http.StatusServiceUnavailable || envelope.Error.Code != ErrCodeQueueFull {
		t.Fatalf("third job = HTTP %d %+v, want 503 queue_full", resp.StatusCode, envelope.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue_full refusal carries no Retry-After header")
	}
	if got := metric(t, ts.URL, "tarserved_shed_queue_full_total"); got != 1 {
		t.Fatalf("shed_queue_full_total = %v, want 1", got)
	}

	close(gate)
	for _, id := range []string{running.ID, queued.ID} {
		if fin := waitDone(t, ts.URL, id); fin.State != StateDone {
			t.Fatalf("accepted job %s = %+v, want done", id, fin)
		}
	}

	// Drain and verify the goroutine census returns to baseline: the
	// worker exits once the queue is closed and empty.
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
	t.Fatalf("goroutines leaked: started with %d, still at %d after drain", g0, runtime.NumGoroutine())
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
