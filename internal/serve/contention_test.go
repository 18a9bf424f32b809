package serve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workloads"
)

// within fails the test unless done yields within five seconds. The waits
// below take microseconds unless a lock is held across the blocked call,
// in which case they never end.
func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5s", what)
	}
}

func fakeRun(bench string, cfg *sim.Config, _ workloads.Scale) (*workloads.Result, error) {
	return fakeResult(bench, cfg.Name), nil
}

// gatedStore parks its next result Get, once armed, until opened, and then
// reports a miss: a lookup that waits on the disk tier's write lock and
// read the store before the Put it races with.
type gatedStore struct {
	store.Interface
	armed    atomic.Bool
	parked   chan struct{}
	release  chan struct{}
	openOnce sync.Once
}

func newGatedStore() *gatedStore {
	return &gatedStore{
		Interface: store.NewMem(storeConfig(0)),
		parked:    make(chan struct{}),
		release:   make(chan struct{}),
	}
}

func (g *gatedStore) Get(ns store.Namespace, key string) ([]byte, bool) {
	if ns == store.Results && g.armed.CompareAndSwap(true, false) {
		close(g.parked)
		<-g.release
		return nil, false
	}
	return g.Interface.Get(ns, key)
}

func (g *gatedStore) open() { g.openOnce.Do(func() { close(g.release) }) }

// TestStoreGetDoesNotBlockHealthOrStatus: Submit's store lookup runs
// outside the server mutex, so a Get that waits (on a disk Put's fsync, in
// production) leaves /healthz and status reads answering.
func TestStoreGetDoesNotBlockHealthOrStatus(t *testing.T) {
	g := newGatedStore()
	s, ts := newTestServer(t, Options{Workers: 1, Store: g, Run: fakeRun})
	t.Cleanup(g.open)
	first, _ := submit(t, ts.URL, SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test"})
	waitDone(t, ts.URL, first.ID)

	g.armed.Store(true)
	go s.Submit(&SubmitRequest{Bench: "dgemm", Config: "EV8", Scale: "test"})
	within(t, g.parked, "the second submission's store lookup")

	client := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/healthz", "/v1/jobs/" + first.ID} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while a store Get is parked: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while a store Get is parked: HTTP %d", path, resp.StatusCode)
		}
	}
}

// TestDedupExactAcrossUnlockedLookup: a flight that completes between a
// submission's unlocked store miss and its locked flight check must not
// start a second simulation; the submission is answered from the store.
func TestDedupExactAcrossUnlockedLookup(t *testing.T) {
	g := newGatedStore()
	running := make(chan struct{}, 2) // one send per simulation: the flight's, and a duplicate's if dedup broke
	finish := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1, Store: g, Run: func(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error) {
		running <- struct{}{}
		<-finish
		return fakeRun(bench, cfg, scale)
	}})
	t.Cleanup(g.open)
	req := SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test"}
	first, err := s.Submit(&req)
	if err != nil {
		t.Fatal(err)
	}
	within(t, running, "the first simulation's start")
	s.mu.Lock()
	lead := s.jobs[first.ID]
	s.mu.Unlock()

	g.armed.Store(true)
	second := make(chan *JobStatus, 1)
	go func() {
		st, err := s.Submit(&req)
		if err != nil {
			t.Error(err)
		}
		second <- st
	}()
	within(t, g.parked, "the second submission's store lookup")
	close(finish)
	within(t, lead.done, "the first flight's completion while the second lookup is parked")
	g.open()

	var st *JobStatus
	select {
	case st = <-second:
	case <-time.After(5 * time.Second):
		t.Fatal("the second submission never returned")
	}
	if st == nil || !st.CacheHit || st.State != StateDone {
		t.Fatalf("second submission = %+v, want a cache hit answered from the store", st)
	}
	if n := metric(t, ts.URL, "tarserved_sims_started_total"); n != 1 {
		t.Fatalf("tarserved_sims_started_total = %v, want 1", n)
	}
}

// stalledWriter is the ResponseWriter of a scraper that stopped reading:
// Write blocks until release is closed.
type stalledWriter struct {
	header  http.Header
	writing chan struct{} // closed by the first Write
	release chan struct{}
	once    sync.Once
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.release
	return len(p), nil
}

// TestStalledScrapeDoesNotBlockSubmit: /metrics writes to its client after
// releasing the metrics mutex, so a scraper that stops reading cannot
// stall the job accounting Submit does under it.
func TestStalledScrapeDoesNotBlockSubmit(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, Run: fakeRun})
	w := &stalledWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		s.handleMetrics(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}()
	t.Cleanup(func() {
		close(w.release)
		<-scraped
	})
	within(t, w.writing, "the scrape's first write")

	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		if _, err := s.Submit(&SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test"}); err != nil {
			t.Error(err)
		}
	}()
	within(t, submitted, "Submit while a /metrics client stalls")
}
