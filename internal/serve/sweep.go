package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/dse"
	"repro/internal/sim"
	"repro/internal/store"
)

// SweepSchemaVersion stamps the durable SweepResult encoding. Bumping it
// namespaces the blob directory, so sweeps persisted by an older build are
// simply replayed (from the still-valid per-experiment artifacts) instead
// of being misread.
const SweepSchemaVersion = 1

// maxSweepRecords bounds retained sweep records; the oldest terminal
// records are forgotten past it.
const maxSweepRecords = 1024

// SweepCell is one benchmark's outcome at one design point.
type SweepCell struct {
	Confhash string `json:"confhash"`
	Cycles   uint64 `json:"cycles"`
	// Speedup is wall-time relative to the declared baseline at each
	// machine's own clock: (baseCycles/baseGHz) / (cycles/GHz).
	Speedup float64 `json:"speedup"`
}

// SweepPointResult is one evaluated design point of a completed sweep.
type SweepPointResult struct {
	Config   string               `json:"config"`
	Knobs    map[string]float64   `json:"knobs,omitempty"`
	Baseline bool                 `json:"baseline,omitempty"`
	Benches  map[string]SweepCell `json:"benches"`
	// Cost is the point's position in the objective space: geometric-mean
	// speedup across the benches, watts from the §5 power model, die mm²
	// from the Figure 5 floorplan.
	Cost       dse.Cost `json:"cost"`
	OnFrontier bool     `json:"on_frontier,omitempty"`
}

// SweepResult is the durable, schema-versioned outcome of one sweep: every
// evaluated point with its per-bench cells and cost, plus the indices of
// the Pareto frontier (no member dominated on {speedup↑, watts↓, mm²↓};
// exact ties all kept). It is persisted in the store's sweeps namespace
// keyed by the spec's content address, so a restarted server answers the
// same spec without re-simulating anything.
type SweepResult struct {
	Schema int       `json:"schema"`
	Key    string    `json:"key"`
	Spec   *dse.Spec `json:"spec"`
	// Points lists the baseline first, then the grid in canonical
	// expansion order (failed points are omitted; a sweep with failures is
	// reported but never persisted).
	Points   []SweepPointResult `json:"points"`
	Frontier []int              `json:"frontier"`
	// Experiments counts the per-experiment submissions the sweep issued;
	// CacheHits the subset answered from the result store without
	// simulation.
	Experiments int   `json:"experiments"`
	CacheHits   int   `json:"cache_hits"`
	ElapsedMs   int64 `json:"elapsed_ms"`
}

// SweepPointStatus is the live progress of one design point.
type SweepPointStatus struct {
	Config    string             `json:"config"`
	Knobs     map[string]float64 `json:"knobs,omitempty"`
	Baseline  bool               `json:"baseline,omitempty"`
	State     string             `json:"state"`
	Done      int                `json:"done"`
	Failed    int                `json:"failed,omitempty"`
	ErrorCode string             `json:"error_code,omitempty"`
}

// SweepStatus is the wire form of a sweep, returned by the submit, list and
// poll endpoints.
type SweepStatus struct {
	ID       string    `json:"id"`
	Key      string    `json:"key"`
	State    string    `json:"state"`
	CacheHit bool      `json:"cache_hit,omitempty"`
	Spec     *dse.Spec `json:"spec"`
	// Total/Done/Failed/Shed count experiments (points × benches); Shed is
	// the subset of failures the overload machinery refused or expired
	// (queue_full, deadline_exceeded). PointCacheHits counts experiments
	// answered from the result store without simulation.
	Total          int                `json:"total"`
	Done           int                `json:"done"`
	Failed         int                `json:"failed"`
	Shed           int                `json:"shed"`
	PointCacheHits int                `json:"point_cache_hits"`
	ElapsedMs      int64              `json:"elapsed_ms,omitempty"`
	Points         []SweepPointStatus `json:"points,omitempty"`
	Result         *SweepResult       `json:"result,omitempty"`
	Error          *ErrorJSON         `json:"error,omitempty"`
}

// sweepPointState is the server-side record of one design point. cfg is
// built once at submission (knobs already validated); per-bench outcomes
// accumulate under the sweep mutex as experiments finish.
type sweepPointState struct {
	cfg      *sim.Config
	knobs    map[string]float64
	baseline bool

	cycles  map[string]uint64
	keys    map[string]string
	done    int
	failed  int
	errCode string
}

// sweep is the server-side record of one sweep orchestration. Fields are
// guarded by mu until the sweep reaches a terminal state (done is closed),
// after which they are immutable.
type sweep struct {
	id        string
	key       string
	spec      *dse.Spec
	submitted time.Time
	done      chan struct{}

	mu        sync.Mutex
	state     string
	cacheHit  bool
	elapsed   time.Duration
	points    []*sweepPointState // index 0 = baseline
	total     int                // experiments = points × benches
	doneExp   int
	failedExp int
	shedExp   int
	cacheHits int
	result    *SweepResult
	err       *JobError
}

// StartSweep registers one sweep and returns its status: answered whole
// from the durable sweep store (terminal immediately), joined onto an
// identical in-flight sweep, or started as a fresh orchestration that fans
// the grid through the job pipeline (dedup, cache, admission control and
// all). A non-nil error is always a *JobError carrying the stable envelope.
// Exported for in-process embedding; the HTTP handler is a thin wrapper.
func (s *Server) StartSweep(spec *dse.Spec) (*SweepStatus, error) {
	if err := spec.Canonicalize(); err != nil {
		return nil, &JobError{Status: http.StatusBadRequest, JSON: ErrorJSON{Code: ErrCodeBadRequest, Message: err.Error()}}
	}
	key := spec.Key()

	// Build every design point up front: baseline first, then the grid in
	// canonical expansion order. Knob values were validated by
	// Canonicalize, so a build failure here is a server bug, not a client
	// error.
	points := []*sweepPointState{{cfg: spec.BaselineConfig(), baseline: true}}
	for _, knobs := range spec.Expand() {
		cfg, err := spec.Build(knobs)
		if err != nil {
			return nil, &JobError{Status: http.StatusInternalServerError, JSON: ErrorJSON{Code: ErrCodeInternal, Message: err.Error()}}
		}
		points = append(points, &sweepPointState{cfg: cfg, knobs: knobs})
	}
	for _, p := range points {
		p.cycles = make(map[string]uint64, len(spec.Benches))
		p.keys = make(map[string]string, len(spec.Benches))
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, &JobError{Status: http.StatusServiceUnavailable, JSON: ErrorJSON{Code: ErrCodeDraining, Message: "server is draining"}}
	}
	if sw, ok := s.sweepByKey[key]; ok {
		s.mu.Unlock()
		s.m.mu.Lock()
		s.m.sweepDedupJoined++
		s.m.mu.Unlock()
		return s.sweepStatus(sw, true), nil
	}
	s.sweepSeq++
	sw := &sweep{
		id:        fmt.Sprintf("sweep-%d", s.sweepSeq),
		key:       key,
		spec:      spec,
		submitted: time.Now(),
		done:      make(chan struct{}),
		state:     StateRunning,
		points:    points,
		total:     len(points) * len(spec.Benches),
	}
	s.sweeps[sw.id] = sw
	s.sweepByKey[key] = sw
	s.sweepOrder = append(s.sweepOrder, sw.id)
	s.gcSweepsLocked()
	s.mu.Unlock()

	s.m.mu.Lock()
	s.m.sweepsSubmitted++
	s.m.mu.Unlock()

	// Durable replay: a completed sweep of this exact spec is answered from
	// the store with zero simulations — the restart-resume contract.
	if sr := s.loadSweepBlob(key); sr != nil {
		sw.mu.Lock()
		sw.state = StateDone
		sw.cacheHit = true
		sw.result = sr
		sw.doneExp = sw.total
		sw.cacheHits = sw.total
		for _, p := range sw.points {
			p.done = len(spec.Benches)
		}
		sw.mu.Unlock()
		close(sw.done)
		s.m.mu.Lock()
		s.m.sweepCacheHits++
		s.m.sweepsDone++
		s.m.mu.Unlock()
		return s.sweepStatus(sw, true), nil
	}

	s.m.mu.Lock()
	s.m.sweepsRunning++
	s.m.mu.Unlock()
	s.sweepsWG.Add(1)
	go s.runSweep(sw)
	return s.sweepStatus(sw, true), nil
}

// loadSweepBlob fetches and validates a persisted SweepResult, or nil.
func (s *Server) loadSweepBlob(key string) *SweepResult {
	raw, ok := s.store.Get(store.Sweeps, key)
	if !ok {
		return nil
	}
	var sr SweepResult
	if err := json.Unmarshal(raw, &sr); err != nil || sr.Schema != SweepSchemaVersion || sr.Key != key {
		return nil // distrusted blob: replay the sweep instead
	}
	return &sr
}

// gcSweepsLocked forgets the oldest terminal sweep records past the
// retention bound. Requires s.mu.
func (s *Server) gcSweepsLocked() {
	for len(s.sweepOrder) > maxSweepRecords {
		id := s.sweepOrder[0]
		sw := s.sweeps[id]
		select {
		case <-sw.done:
			s.sweepOrder = s.sweepOrder[1:]
			delete(s.sweeps, id)
			if s.sweepByKey[sw.key] == sw {
				delete(s.sweepByKey, sw.key)
			}
		default:
			return // oldest record still live; keep everything behind it
		}
	}
}

// runSweep drives one sweep to a terminal state: every experiment (point ×
// bench) is submitted through the ordinary job pipeline — confhash dedup,
// result store, admission control — with a bounded
// in-flight window so a large grid cannot monopolize the queue. queue_full
// rejections back off and retry (the admission controller's Retry-After is
// the hint); draining aborts the sweep.
func (s *Server) runSweep(sw *sweep) {
	defer s.sweepsWG.Done()
	start := time.Now()
	limit := 2 * s.opts.Workers
	if limit < 4 {
		limit = 4
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	var abort *JobError

submitLoop:
	for pi := range sw.points {
		p := sw.points[pi]
		for _, bench := range sw.spec.Benches {
			sem <- struct{}{}
			req := &SubmitRequest{Bench: bench, Scale: sw.spec.Scale}
			if p.baseline {
				req.Config = sw.spec.Baseline
			} else {
				req.Config = sw.spec.Config
				req.Knobs = p.knobs
			}
			var st *JobStatus
			var subErr *JobError
			for attempt := 0; ; attempt++ {
				st0, err := s.Submit(req)
				if err == nil {
					st = st0
					break
				}
				je := toJobError(err)
				if je.JSON.Code == ErrCodeQueueFull && attempt < 120 {
					// Saturated: honor the capacity estimate, bounded to
					// keep one sweep's patience finite.
					d := je.RetryAfter
					if d < 50*time.Millisecond {
						d = 50 * time.Millisecond
					}
					if d > 2*time.Second {
						d = 2 * time.Second
					}
					time.Sleep(d)
					continue
				}
				subErr = je
				break
			}
			s.m.mu.Lock()
			s.m.sweepExperiments++
			s.m.mu.Unlock()
			if subErr != nil {
				s.recordSweepExp(sw, pi, bench, "", 0, false, &subErr.JSON)
				<-sem
				if subErr.JSON.Code == ErrCodeDraining {
					abort = subErr
					break submitLoop
				}
				continue
			}
			if st.State == StateDone || st.State == StateFailed {
				// Terminal at submit (a store hit, or a flight that ended
				// before the status was taken): record straight from the
				// returned status.
				var cycles uint64
				if st.Result != nil {
					cycles = st.Result.Cycles
				}
				s.recordSweepExp(sw, pi, bench, st.Key, cycles, st.CacheHit, st.Error)
				<-sem
				continue
			}
			s.mu.Lock()
			j := s.jobs[st.ID]
			s.mu.Unlock()
			if j == nil {
				// GC can only forget terminal jobs, so a vanished record
				// means the job finished; its submit-time status said
				// otherwise, which is a server bug worth surfacing.
				s.recordSweepExp(sw, pi, bench, st.Key, 0, false,
					&ErrorJSON{Code: ErrCodeInternal, Message: "job record vanished while live"})
				<-sem
				continue
			}
			wg.Add(1)
			go func(pi int, bench string, j *job) {
				defer wg.Done()
				defer func() { <-sem }()
				<-j.done
				if j.err != nil {
					s.recordSweepExp(sw, pi, bench, j.key, 0, false, &j.err.JSON)
					return
				}
				s.recordSweepExp(sw, pi, bench, j.key, j.res.Stats.Cycles, j.cacheHit, nil)
			}(pi, bench, j)
		}
	}
	wg.Wait()
	s.finishSweep(sw, start, abort)
}

// recordSweepExp folds one experiment outcome into its sweep point.
func (s *Server) recordSweepExp(sw *sweep, pi int, bench, key string, cycles uint64, cacheHit bool, errJSON *ErrorJSON) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	p := sw.points[pi]
	if errJSON == nil {
		p.cycles[bench] = cycles
		p.keys[bench] = key
		p.done++
		sw.doneExp++
		if cacheHit {
			sw.cacheHits++
		}
		return
	}
	p.failed++
	if p.errCode == "" {
		p.errCode = errJSON.Code
	}
	sw.failedExp++
	if errJSON.Code == ErrCodeQueueFull || errJSON.Code == ErrCodeDeadlineExceeded {
		sw.shedExp++
	}
}

// finishSweep computes the sweep's terminal state: per-point costs, the
// Pareto frontier, and — when every experiment succeeded — the durable
// blob. A failed baseline fails the sweep (there is nothing to normalize
// speedups against); failed grid points are reported but excluded from the
// ranking.
func (s *Server) finishSweep(sw *sweep, start time.Time, abort *JobError) {
	benches := sw.spec.Benches
	sw.mu.Lock()
	sw.elapsed = time.Since(start)
	base := sw.points[0]
	switch {
	case abort != nil:
		sw.state = StateFailed
		sw.err = abort
	case base.failed > 0 || base.done < len(benches):
		// The sweep fails with its baseline's code, and answers with that
		// code's status from the closed table.
		code := base.errCode
		if code == "" {
			code = ErrCodeWedge
		}
		status, ok := ErrorCodeStatus[code]
		if !ok {
			status = http.StatusInternalServerError
		}
		sw.state = StateFailed
		sw.err = &JobError{
			Status: status,
			JSON: ErrorJSON{
				Code:    code,
				Message: fmt.Sprintf("baseline %q failed (%s); no reference to normalize speedups against", sw.spec.Baseline, base.errCode),
			},
		}
	default:
		sw.state = StateDone
		sr := &SweepResult{
			Schema:      SweepSchemaVersion,
			Key:         sw.key,
			Spec:        sw.spec,
			Experiments: sw.total,
			CacheHits:   sw.cacheHits,
			ElapsedMs:   sw.elapsed.Milliseconds(),
		}
		var costs []dse.Cost
		for _, p := range sw.points {
			if p.failed > 0 || p.done < len(benches) {
				continue
			}
			cells := make(map[string]SweepCell, len(benches))
			var speedups []float64
			for _, b := range benches {
				sp := 0.0
				if p.cycles[b] > 0 && base.cycles[b] > 0 {
					baseTime := float64(base.cycles[b]) / base.cfg.CPUGHz
					ptTime := float64(p.cycles[b]) / p.cfg.CPUGHz
					sp = baseTime / ptTime
				}
				speedups = append(speedups, sp)
				cells[b] = SweepCell{Confhash: p.keys[b], Cycles: p.cycles[b], Speedup: sp}
			}
			watts, mm2 := dse.Evaluate(p.cfg)
			cost := dse.Cost{Speedup: dse.Geomean(speedups), Watts: watts, MM2: mm2}
			costs = append(costs, cost)
			sr.Points = append(sr.Points, SweepPointResult{
				Config:   p.cfg.Name,
				Knobs:    p.knobs,
				Baseline: p.baseline,
				Benches:  cells,
				Cost:     cost,
			})
		}
		sr.Frontier = dse.Frontier(costs)
		for _, i := range sr.Frontier {
			sr.Points[i].OnFrontier = true
		}
		sw.result = sr
	}
	state, failedExp, result := sw.state, sw.failedExp, sw.result
	sw.mu.Unlock()

	// Persist only complete, fully-successful sweeps: partial outcomes
	// (shed or failed points) replay next time, when capacity allows the
	// missing points to actually run.
	if state == StateDone && failedExp == 0 {
		if raw, err := json.Marshal(result); err == nil {
			s.store.Put(store.Sweeps, sw.key, raw)
		}
	}

	s.mu.Lock()
	if state == StateFailed && s.sweepByKey[sw.key] == sw {
		// A failed sweep must not absorb retries of the same spec.
		delete(s.sweepByKey, sw.key)
	}
	s.mu.Unlock()

	s.m.mu.Lock()
	s.m.sweepsRunning--
	if state == StateDone {
		s.m.sweepsDone++
	} else {
		s.m.sweepsFailed++
	}
	s.m.mu.Unlock()
	close(sw.done)
}

// sweepStatus renders a sweep's wire form. Terminal sweeps are immutable;
// live ones are read under the sweep mutex.
func (s *Server) sweepStatus(sw *sweep, includePoints bool) *SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := &SweepStatus{
		ID:             sw.id,
		Key:            sw.key,
		State:          sw.state,
		CacheHit:       sw.cacheHit,
		Spec:           sw.spec,
		Total:          sw.total,
		Done:           sw.doneExp,
		Failed:         sw.failedExp,
		Shed:           sw.shedExp,
		PointCacheHits: sw.cacheHits,
		ElapsedMs:      sw.elapsed.Milliseconds(),
		Result:         sw.result,
	}
	if sw.err != nil {
		ej := sw.err.JSON
		st.Error = &ej
	}
	if !includePoints {
		return st
	}
	nb := len(sw.spec.Benches)
	for _, p := range sw.points {
		ps := SweepPointStatus{
			Config:    p.cfg.Name,
			Knobs:     p.knobs,
			Baseline:  p.baseline,
			Done:      p.done,
			Failed:    p.failed,
			ErrorCode: p.errCode,
		}
		switch {
		case p.failed > 0:
			ps.State = StateFailed
		case p.done == nb:
			ps.State = StateDone
		case p.done > 0:
			ps.State = StateRunning
		default:
			ps.State = StateQueued
		}
		st.Points = append(st.Points, ps)
	}
	return st
}

// ---- HTTP handlers ----

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec dse.Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad JSON: "+err.Error())
		return
	}
	st, err := s.StartSweep(&spec)
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

// handleSweepStatus reports one sweep with per-point progress; ?wait=10s
// long-polls until the sweep reaches a terminal state or the wait expires
// (capped at 60s), the same streaming idiom as job status.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sw, ok := s.sweeps[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "unknown sweep")
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad wait duration: "+err.Error())
			return
		}
		if wait > time.Minute {
			wait = time.Minute
		}
		select {
		case <-sw.done:
		case <-time.After(wait):
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, s.sweepStatus(sw, true))
}

// handleSweepResult returns the completed SweepResult (200), the sweep's
// progress (202 while not terminal), or the stable error envelope.
func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sw, ok := s.sweeps[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "unknown sweep")
		return
	}
	select {
	case <-sw.done:
	default:
		writeJSON(w, http.StatusAccepted, s.sweepStatus(sw, false))
		return
	}
	if sw.err != nil {
		writeJobError(w, sw.err)
		return
	}
	writeJSON(w, http.StatusOK, sw.result)
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.sweepOrder...)
	s.mu.Unlock()
	out := make([]*SweepStatus, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		sw := s.sweeps[id]
		s.mu.Unlock()
		if sw != nil {
			out = append(out, s.sweepStatus(sw, false))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

// handleSweepKnobs advertises the sweepable-knob registry: names, types and
// legal ranges, so clients can build valid specs without guessing.
func (s *Server) handleSweepKnobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"knobs": dse.Knobs()})
}
