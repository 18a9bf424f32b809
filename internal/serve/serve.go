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
// Under overload the server sheds load structurally rather than degrading:
// the admission controller refuses submissions whose estimated queue wait
// would blow their deadline (queue_full + Retry-After), and queued jobs
// whose deadline expires are shed with deadline_exceeded before ever
// occupying a worker.
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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/confhash"
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
	// overflow rejects the submission with 503 rather than queueing
	// unboundedly.
	QueueDepth int
	// Store holds results and warm-up snapshots. Nil selects
	// the memory-only store with its default bounds; OpenStore builds the
	// store tarserved uses, memory-only or tiered over a disk directory.
	Store store.Interface
	// QueueWait bounds how long a job may wait for a worker before being
	// shed with code "deadline_exceeded"; it is also the admission
	// controller's wait budget (submissions whose estimated wait exceeds
	// it are refused up front with "queue_full" + Retry-After). A request
	// may ask for less via queue_wait_ms, never more. Zero disables
	// queue-wait shedding and admission control entirely.
	QueueWait time.Duration
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

	workersWG   sync.WaitGroup
	janitorWG   sync.WaitGroup
	stopJanitor chan struct{}
	stopOnce    sync.Once
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
		opts:        opts,
		run:         opts.Run,
		store:       opts.Store,
		m:           &metrics{},
		jobs:        make(map[string]*job),
		flights:     make(map[string]*flight),
		queue:       make(chan *flight, opts.QueueDepth),
		stopJanitor: make(chan struct{}),
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
	if opts.QueueWait > 0 {
		s.janitorWG.Add(1)
		go s.janitor()
	}
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops intake (new submissions get 503), lets queued and in-flight
// simulations finish, stops the shed janitor, closes the store, and returns
// when the pool is idle or ctx expires. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopJanitor) })
	idle := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		s.janitorWG.Wait()
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
		s.mu.Lock()
		if f.shed {
			// The janitor already completed this flight; the channel slot
			// is stale.
			s.mu.Unlock()
			continue
		}
		if !f.deadline.IsZero() && time.Now().After(f.deadline) {
			// Expired in the queue between janitor ticks: shed at dequeue,
			// never start a simulation that already missed its deadline.
			f.shed = true
			s.mu.Unlock()
			s.complete(f, nil, shedError(f.key), -1)
			continue
		}
		f.started = true
		wereQueued := 0
		for _, j := range f.jobs {
			if j.state == StateQueued {
				wereQueued++
			}
			j.state = StateRunning
		}
		n := len(f.jobs)
		s.mu.Unlock()
		s.m.mu.Lock()
		s.m.queued -= wereQueued
		s.m.running += n
		s.m.simsStarted++
		s.m.mu.Unlock()
		execStart := time.Now()
		res, err := execute(f.spec, s.run)
		var jobErr *JobError
		if err != nil {
			jobErr = toJobError(err)
			jobErr.JSON.Confhash = f.key
		}
		s.complete(f, res, jobErr, time.Since(execStart).Seconds())
	}
}

// execute builds the spec and runs it through run with panic isolation,
// mirroring the tables runner's per-cell recovery: a model bug in one
// experiment must not take the service down. A kernel that stalls is cut
// off at the spec's deadline by the simulator itself (sim.Config.Deadline),
// which frees the worker; the stalled goroutine lives on until its kernel
// returns.
func execute(spec *JobSpec, run RunFunc) (res *workloads.Result, err error) {
	cfg, scale, buildErr := spec.Build()
	if buildErr != nil {
		return nil, &JobError{JSON: ErrorJSON{Code: ErrCodeBadRequest, Message: buildErr.Error()}}
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, panicError{p}
		}
	}()
	return run(spec.Bench, cfg, scale)
}

// shedError is the terminal envelope of a job whose deadline expired while
// it was still queued.
func shedError(key string) *JobError {
	return &JobError{JSON: ErrorJSON{
		Code:     ErrCodeDeadlineExceeded,
		Message:  "deadline expired while queued; job shed before execution",
		Confhash: key,
	}}
}

// janitor sheds queued flights whose deadline expired before a worker freed
// up, so a saturated server fails them promptly instead of letting them rot
// in the queue past their useful life.
func (s *Server) janitor() {
	defer s.janitorWG.Done()
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.stopJanitor:
			return
		case <-t.C:
			s.shedExpired()
		}
	}
}

// shedExpired marks every expired, not-yet-started flight as shed (under
// the server mutex, so shedding and execution are mutually exclusive) and
// completes them with deadline_exceeded. The flight's channel slot stays
// behind; workers skip it via the shed flag.
func (s *Server) shedExpired() {
	now := time.Now()
	s.mu.Lock()
	var expired []*flight
	for _, f := range s.flights {
		if !f.started && !f.shed && !f.deadline.IsZero() && now.After(f.deadline) {
			f.shed = true
			expired = append(expired, f)
		}
	}
	s.mu.Unlock()
	for _, f := range expired {
		s.complete(f, nil, shedError(f.key), -1)
	}
}

// complete publishes a flight's outcome to every attached job, feeds the
// store, and updates the metrics. The result is encoded once: the store
// gets those bytes and every job keeps the *JobResult it serves. execSec is
// the execution time feeding the admission controller's wait estimator;
// negative means the flight was shed without executing.
func (s *Server) complete(f *flight, res *workloads.Result, jobErr *JobError, execSec float64) {
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
	wereQueued, wereRunning := 0, 0
	for _, j := range f.jobs {
		switch j.state {
		case StateQueued:
			wereQueued++
		case StateRunning:
			wereRunning++
		}
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
	if execSec >= 0 {
		s.m.simsDone++
		if s.m.ewmaJob == 0 {
			s.m.ewmaJob = execSec
		} else {
			s.m.ewmaJob = 0.7*s.m.ewmaJob + 0.3*execSec
		}
	}
	s.m.queued -= wereQueued
	s.m.running -= wereRunning
	for _, j := range f.jobs {
		if jobErr == nil {
			s.m.done++
		} else {
			s.m.failed++
			switch jobErr.JSON.Code {
			case ErrCodeWedge:
				s.m.wedged++
			case ErrCodeDeadlineExceeded:
				s.m.shedDeadline++
			}
		}
		s.m.recordLatency(j.elapsed.Seconds())
	}
	s.m.mu.Unlock()
}

// ---- submission ----

// queueWaitFor resolves a request's queue-wait budget: the server bound,
// tightened (never loosened) by the request's queue_wait_ms. Zero when the
// server has queue-wait shedding disabled.
func (s *Server) queueWaitFor(req *SubmitRequest) time.Duration {
	bound := s.opts.QueueWait
	if bound <= 0 {
		return 0
	}
	if req.QueueWaitMs > 0 {
		if d := time.Duration(req.QueueWaitMs) * time.Millisecond; d < bound {
			return d
		}
	}
	return bound
}

// Submit registers one experiment and returns its status: answered from the
// store (terminal immediately), attached to an identical in-flight run, or
// queued as a fresh flight. A non-nil error is always a *JobError carrying
// the stable envelope (bad_request, draining, queue_full). Exported for
// in-process embedding; the HTTP handler is a thin wrapper.
func (s *Server) Submit(req *SubmitRequest) (*JobStatus, error) {
	spec, cfg, scale, err := s.resolveSpec(req)
	if err != nil {
		return nil, &JobError{JSON: ErrorJSON{Code: ErrCodeBadRequest, Message: err.Error()}}
	}
	key := confhash.Key(spec.Bench, scale.String(), cfg)
	now := time.Now()
	wait := s.queueWaitFor(req)

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
		bench:     spec.Bench,
		config:    cfg.Name,
		scaleStr:  scale.String(),
		submitted: now,
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.gcLocked()

	if f, ok := s.flights[key]; !hit && (!ok || f.shed) && s.stored.Load() != stored {
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

	if f, ok := s.flights[key]; ok && !f.shed {
		f.jobs = append(f.jobs, j)
		j.state = f.jobs[0].state // queued or running, same as the leader
		if !f.started && !f.deadline.IsZero() && wait > 0 {
			// A joiner with a later deadline extends the flight's: the
			// flight must live as long as its most patient job.
			if d := now.Add(wait); d.After(f.deadline) {
				f.deadline = d
			}
		}
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

	// Admission control: refuse up front when the estimated queue wait
	// (work ahead × EWMA execution time / workers) would blow the job's
	// wait budget anyway — a structured early rejection with a capacity
	// estimate beats a guaranteed deadline_exceeded later. "Work ahead"
	// counts queued flights plus executing ones minus free workers, so an
	// idle server never rejects.
	if wait > 0 {
		s.m.mu.Lock()
		ewma := s.m.ewmaJob
		active := int(s.m.simsStarted - s.m.simsDone)
		s.m.mu.Unlock()
		if ahead := len(s.queue) + active - s.opts.Workers + 1; ewma > 0 && ahead > 0 {
			estWait := float64(ahead) * ewma / float64(s.opts.Workers)
			if estWait > wait.Seconds() {
				delete(s.jobs, j.id)
				s.order = s.order[:len(s.order)-1]
				s.mu.Unlock()
				s.m.mu.Lock()
				s.m.rejected++
				s.m.shedQueueFull++
				s.m.mu.Unlock()
				retry := time.Duration((estWait - wait.Seconds()) * float64(time.Second))
				if retry < time.Second {
					retry = time.Second
				}
				return nil, &JobError{
					JSON:       ErrorJSON{Code: ErrCodeQueueFull, Message: fmt.Sprintf("estimated queue wait %.1fs exceeds wait budget %s", estWait, wait), Confhash: key},
					RetryAfter: retry,
				}
			}
		}
	}

	f := &flight{key: key, spec: spec, jobs: []*job{j}}
	if wait > 0 {
		f.deadline = now.Add(wait)
	}
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
		return nil, &JobError{
			JSON:       ErrorJSON{Code: ErrCodeQueueFull, Message: "job queue is full"},
			RetryAfter: time.Second,
		}
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
	res, jobErr := j.res, j.err
	s.mu.Unlock()
	if st.State == StateDone {
		st.Result = res
	}
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
// from ErrorCodeStatus, plus a Retry-After header when the rejection
// carries a capacity estimate.
func writeJobError(w http.ResponseWriter, je *JobError) {
	if je.RetryAfter > 0 {
		secs := int(je.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, ErrorCodeStatus[je.JSON.Code], map[string]any{"error": je.JSON})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
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
// functional check failures, 500 for server-side faults, 504 for jobs shed
// in the queue.
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
// warm-start and quarantine counters) and the overload counters (sheds and
// deadline expiries). The status degrades to 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	s.m.mu.Lock()
	shed := map[string]uint64{
		"queue_full":        s.m.shedQueueFull,
		"deadline_exceeded": s.m.shedDeadline,
	}
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
