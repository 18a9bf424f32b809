// Package serve turns the Tarantula simulator into a long-lived,
// multi-tenant job service: experiments are submitted over JSON/HTTP, keyed
// by their confhash content address, deduplicated against in-flight runs,
// answered from the result store when possible, and executed on a bounded
// worker pool otherwise. The server exposes Prometheus metrics and
// drains in-flight simulations on shutdown, so a deploy never truncates a
// half-finished experiment.
//
// Simulations run on the worker pool's goroutines, in the server process. A
// panic is recovered into error code "internal", and every integrity
// feature (watchdog, deadline, invariant checker, fault campaigns) remains
// a request knob: a wedged machine, or a kernel that stalls past its
// deadline, surfaces as a structured HTTP 422 with error code "wedge" —
// never a hung connection or an anonymous 500.
//
// Results and warm-up chip snapshots live in one content-addressed store,
// internal/store's Interface, which the server calls directly by namespace:
// the in-memory tier alone, or the memory tier over a crash-safe disk store
// so a restarted server warm-starts from its previous life's artifacts.
// The bounded queue is the one backpressure: a submission that finds it
// full is refused with queue_full (503, Retry-After: 1), and a queued
// flight always runs, so its result is stored even for a client that gave
// up waiting.
//
// A design-space sweep is not a server concept: it is one job per point
// and bench, submitted by the client (tarload -sweep) and ranked there with
// internal/dse. The server only advertises the knob registry
// (GET /v1/sweeps/knobs) and validates a job's knobs.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dse"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workloads"
)

// RunFunc executes one experiment. The default runs the real simulator with
// warm-up snapshot reuse; tests substitute counting or failing stubs.
type RunFunc func(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error)

// Options configures a Server. Zero values select sensible defaults.
type Options struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds flights waiting for a worker (default 1024);
	// overflow refuses the submission with queue_full rather than queueing
	// unboundedly.
	QueueDepth int
	// Store holds results and warm-up snapshots. Nil selects
	// the memory-only store with its default bounds; OpenStore builds the
	// store tarserved uses, memory-only or tiered over a disk directory.
	Store store.Interface
	// DefaultDeadline is applied to jobs that do not set deadline_ms;
	// MaxDeadline clamps what a request may ask for. Zero disables each.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxJobs bounds retained job records (default 16384); the oldest
	// terminal jobs are forgotten past it.
	MaxJobs int
	// SampleEvery arms the cycle-interval sampler on every simulation the
	// server runs: results carry a metrics.SeriesDump and /metrics exposes
	// per-experiment series summaries. Zero (the default) disables
	// sampling, keeping result bytes identical to an unsampled CLI run.
	// The knob lives outside the confhash identity, so sampled and
	// unsampled runs of one experiment share a content key.
	SampleEvery uint64
	// Run substitutes the execution function (tests only).
	Run RunFunc
}

// Server is the simulation-as-a-service layer. Create with New, mount via
// Handler, stop with Drain.
type Server struct {
	opts  Options
	run   RunFunc
	store store.Interface
	m     *metrics
	mux   *http.ServeMux

	mu       sync.Mutex
	seq      int
	jobs     map[string]*job
	order    []string // job ids, submission order (listing + record GC)
	flights  map[string]*flight
	queue    chan *flight
	draining bool

	// stored counts results complete has put in the store. Submit looks
	// the store up before taking mu and re-probes under mu when this moved
	// meanwhile, so a flight that lands in between is not simulated twice.
	stored atomic.Uint64

	workersWG sync.WaitGroup
}

// New builds a server and starts its worker pool.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 16384
	}
	s := &Server{
		opts:    opts,
		run:     opts.Run,
		store:   opts.Store,
		m:       &metrics{},
		jobs:    make(map[string]*job),
		flights: make(map[string]*flight),
		queue:   make(chan *flight, opts.QueueDepth),
	}
	if s.store == nil {
		s.store = store.NewMem(storeConfig(0))
	}
	if s.run == nil {
		s.run = s.snapshotRun()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/sweeps/knobs", s.handleSweepKnobs)
	s.mux.HandleFunc("GET /v1/benches", s.handleBenches)
	s.mux.HandleFunc("GET /v1/configs", s.handleConfigs)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	for i := 0; i < opts.Workers; i++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops intake (new submissions get 503), lets queued and in-flight
// simulations finish, closes the store, and returns when the pool is idle
// or ctx expires. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		s.store.Close()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %d simulations still in flight: %w", s.inFlight(), ctx.Err())
	}
}

func (s *Server) inFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flights)
}

// ---- execution ----

func (s *Server) worker() {
	defer s.workersWG.Done()
	for f := range s.queue {
		// Every job of a flight still in the queue is queued; joiners from
		// here on start out running.
		s.mu.Lock()
		for _, j := range f.jobs {
			j.state = StateRunning
		}
		n := len(f.jobs)
		s.mu.Unlock()
		s.m.mu.Lock()
		s.m.queued -= n
		s.m.running += n
		s.m.simsStarted++
		s.m.mu.Unlock()
		res, err := execute(f, s.run)
		var jobErr *JobError
		if err != nil {
			jobErr = toJobError(err)
			jobErr.JSON.Confhash = f.key
		}
		s.complete(f, res, jobErr)
	}
}

// execute runs a flight's resolved inputs through run with panic
// isolation, mirroring the tables runner's per-cell recovery: a model bug in
// one experiment must not take the service down. A kernel that stalls is
// cut off at the configuration's deadline by the simulator itself
// (sim.Config.Deadline), which frees the worker; the stalled goroutine lives
// on until its kernel returns.
func execute(f *flight, run RunFunc) (res *workloads.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, panicError{p}
		}
	}()
	return run(f.bench, f.cfg, f.scale)
}

// complete publishes a flight's outcome to every attached job, feeds the
// store, and updates the metrics. The result is encoded once: the store
// gets those bytes and every job keeps the *JobResult it serves. Every job
// of the flight is running by now.
func (s *Server) complete(f *flight, res *workloads.Result, jobErr *JobError) {
	var jr *JobResult
	if jobErr == nil {
		jr = EncodeResult(f.key, res)
		putResult(s.store, jr)
		s.stored.Add(1)
		s.m.recordExperiment(jr)
	}
	now := time.Now()
	s.mu.Lock()
	delete(s.flights, f.key)
	for _, j := range f.jobs {
		j.res, j.err = jr, jobErr
		j.elapsed = now.Sub(j.submitted)
		if jobErr == nil {
			j.state = StateDone
		} else {
			j.state = StateFailed
		}
		close(j.done)
	}
	s.mu.Unlock()
	s.m.mu.Lock()
	s.m.simsDone++
	s.m.running -= len(f.jobs)
	for _, j := range f.jobs {
		if jobErr == nil {
			s.m.done++
		} else {
			s.m.failed++
			if jobErr.JSON.Code == ErrCodeWedge {
				s.m.wedged++
			}
		}
		s.m.recordLatency(j.elapsed.Seconds())
	}
	s.m.mu.Unlock()
}

// ---- submission ----

// Submit registers one experiment and returns its status: answered from the
// store (terminal immediately), attached to an identical in-flight run, or
// queued as a fresh flight. A non-nil error is always a *JobError carrying
// the stable envelope (bad_request, draining, queue_full). Exported for
// in-process embedding; the HTTP handler is a thin wrapper.
func (s *Server) Submit(req *SubmitRequest) (*JobStatus, error) {
	bench, scale, cfg, key, err := s.resolve(req)
	if err != nil {
		return nil, &JobError{JSON: ErrorJSON{Code: ErrCodeBadRequest, Message: err.Error()}}
	}
	now := time.Now()

	// The store lookup runs before s.mu: a Get may wait on the disk tier's
	// write lock, and the decode is not free.
	stored := s.stored.Load()
	res, hit := getResult(s.store, key)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.mu.Lock()
		s.m.rejected++
		s.m.mu.Unlock()
		return nil, &JobError{JSON: ErrorJSON{Code: ErrCodeDraining, Message: "server is draining"}}
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("job-%d", s.seq),
		key:       key,
		bench:     bench,
		config:    cfg.Name,
		scaleStr:  scale.String(),
		submitted: now,
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.gcLocked()

	if _, ok := s.flights[key]; !hit && !ok && s.stored.Load() != stored {
		// A flight may have put this result and left between the miss
		// above and s.mu: look again rather than simulate it twice.
		res, hit = getResult(s.store, key)
	}
	if hit {
		j.state, j.res, j.cacheHit = StateDone, res, true
		close(j.done)
		s.mu.Unlock()
		s.m.mu.Lock()
		s.m.submitted++
		s.m.cacheHits++
		s.m.done++
		s.m.recordLatency(0)
		s.m.bumpExperimentHitLocked(key)
		s.m.mu.Unlock()
		return s.status(j), nil
	}

	if f, ok := s.flights[key]; ok {
		f.jobs = append(f.jobs, j)
		j.state = f.jobs[0].state // queued or running, same as the leader
		s.mu.Unlock()
		s.m.mu.Lock()
		s.m.submitted++
		s.m.cacheMisses++
		s.m.dedupJoined++
		if j.state == StateRunning {
			s.m.running++
		} else {
			s.m.queued++
		}
		s.m.mu.Unlock()
		return s.status(j), nil
	}

	f := &flight{key: key, bench: bench, scale: scale, cfg: cfg, jobs: []*job{j}}
	j.state = StateQueued
	select {
	case s.queue <- f:
	default:
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		s.m.mu.Lock()
		s.m.rejected++
		s.m.shedQueueFull++
		s.m.mu.Unlock()
		return nil, &JobError{JSON: ErrorJSON{Code: ErrCodeQueueFull, Message: "job queue is full"}}
	}
	s.flights[key] = f
	s.mu.Unlock()
	s.m.mu.Lock()
	s.m.submitted++
	s.m.cacheMisses++
	s.m.queued++
	s.m.mu.Unlock()
	return s.status(j), nil
}

// gcLocked forgets the oldest terminal job records past the retention
// bound. Requires s.mu.
func (s *Server) gcLocked() {
	for len(s.order) > s.opts.MaxJobs {
		id := s.order[0]
		j := s.jobs[id]
		select {
		case <-j.done:
			s.order = s.order[1:]
			delete(s.jobs, id)
		default:
			return // oldest record still live; keep everything behind it
		}
	}
}

// status renders a job's wire form. Terminal jobs are immutable; live ones
// are read under the server mutex.
func (s *Server) status(j *job) *JobStatus {
	s.mu.Lock()
	st := &JobStatus{
		ID:        j.id,
		Key:       j.key,
		Bench:     j.bench,
		Config:    j.config,
		Scale:     j.scaleStr,
		State:     j.state,
		CacheHit:  j.cacheHit,
		ElapsedMs: j.elapsed.Milliseconds(),
	}
	jobErr := j.err
	s.mu.Unlock()
	if st.State == StateFailed && jobErr != nil {
		ej := jobErr.JSON
		st.Error = &ej
	}
	return st
}

// ---- HTTP handlers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError emits the stable envelope, {"error":{"code","message",...}},
// with its code's HTTP status.
func writeError(w http.ResponseWriter, code, msg string) {
	writeJobError(w, &JobError{JSON: ErrorJSON{Code: code, Message: msg}})
}

// writeJobError emits a JobError's envelope with its code's HTTP status
// from ErrorCodeStatus. A queue_full refusal also carries Retry-After: 1.
func writeJobError(w http.ResponseWriter, je *JobError) {
	if je.JSON.Code == ErrCodeQueueFull {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, ErrorCodeStatus[je.JSON.Code], map[string]any{"error": je.JSON})
}

// handleSubmit decodes the request strictly: a field SubmitRequest does not
// have, misspelt or retired, is a bad_request naming it rather than an
// experiment silently run without it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, ErrCodeBadRequest, "bad JSON: "+err.Error())
		return
	}
	st, err := s.Submit(&req)
	if err != nil {
		writeJobError(w, toJobError(err))
		return
	}
	code := http.StatusAccepted
	if st.State == StateDone || st.State == StateFailed {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// handleStatus reports one job; ?wait=10s long-polls until the job reaches
// a terminal state or the wait expires (capped at 60s), which is how
// clients "stream" status without a busy loop.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, ErrCodeNotFound, "unknown job")
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, ErrCodeBadRequest, "bad wait duration: "+err.Error())
			return
		}
		if wait > time.Minute {
			wait = time.Minute
		}
		select {
		case <-j.done:
		case <-time.After(wait):
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

// handleResult returns the completed result (200), the job's progress (202
// while not terminal), or the stable error envelope — 422 for wedges and
// functional check failures, 500 for server-side faults. It is the one
// read path for a result.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, ErrCodeNotFound, "unknown job")
		return
	}
	select {
	case <-j.done:
	default:
		writeJSON(w, http.StatusAccepted, s.status(j))
		return
	}
	if j.err != nil {
		writeJobError(w, j.err)
		return
	}
	writeJSON(w, http.StatusOK, j.res)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]*JobStatus, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j != nil {
			out = append(out, s.status(j))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleBenches(w http.ResponseWriter, r *http.Request) {
	type benchInfo struct {
		Name  string `json:"name"`
		Class string `json:"class"`
		Desc  string `json:"desc"`
	}
	var out []benchInfo
	for _, n := range workloads.Names() {
		b, _ := workloads.Get(n)
		out = append(out, benchInfo{Name: n, Class: b.Class, Desc: b.Desc})
	}
	writeJSON(w, http.StatusOK, map[string]any{"benches": out})
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"configs": sim.Names()})
}

// handleSweepKnobs advertises the sweepable-knob registry: names, types and
// legal ranges, so clients can build valid sweeps and job knobs without
// guessing.
func (s *Server) handleSweepKnobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"knobs": dse.Knobs()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.render(w, storeStatus(s.store.Status()), s.opts.Workers, len(s.queue))
}

// handleHealthz reports liveness plus the worker pool (size, queue depth),
// the result store's status block (tier, entry counts, disk bytes,
// warm-start and quarantine counters) and the overload counter (queue-full
// refusals). The status degrades to 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	s.m.mu.Lock()
	shed := map[string]uint64{"queue_full": s.m.shedQueueFull}
	s.m.mu.Unlock()
	body := map[string]any{
		"status":        "ok",
		"workers_alive": s.opts.Workers,
		"queue_depth":   len(s.queue),
		"store":         storeStatus(s.store.Status()),
		"shed":          shed,
	}
	code := http.StatusOK
	if draining {
		body["status"] = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}
