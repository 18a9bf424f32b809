package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/confhash"
	"repro/internal/dse"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Job states. A job is terminal in StateDone or StateFailed; everything
// else is still moving through the queue/worker pipeline.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// SubmitRequest is the POST /v1/jobs body: one experiment, described with
// the vocabulary of the CLI tools (tarsim's flags map onto these fields; its
// -nopump is the knob pump=0). The zero value of every optional field means
// "the default the CLI would use". A body naming any other field is a
// bad_request.
type SubmitRequest struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
	// Scale is test, bench or full (default bench).
	Scale string `json:"scale,omitempty"`
	// Check runs the cell under the microarchitectural invariant checker.
	Check bool `json:"check,omitempty"`
	// DeadlineMs caps the simulation's wall-clock time; 0 inherits the
	// server default, and values above the server maximum are clamped.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Watchdog overrides the no-retirement-progress window in cycles.
	Watchdog uint64 `json:"watchdog,omitempty"`
	// FaultSeed arms a deterministic fault campaign (0 = off);
	// FaultCampaign selects it: "jitter" (default) or "storm".
	FaultSeed     int64  `json:"fault_seed,omitempty"`
	FaultCampaign string `json:"fault_campaign,omitempty"`
	// Knobs perturbs the named config along the design-space-exploration
	// axes (lanes, l2_kb, zbox_ports, clock_ghz, pump, phys_vregs) before
	// simulation. Unknown names or out-of-range values are bad_request.
	Knobs map[string]float64 `json:"knobs,omitempty"`
}

// resolve validates a request and builds what it names: the benchmark, the
// input scale, the decorated machine configuration with the server's
// deadline and sampler folded in, and the content key of that
// configuration. It is the one place a request becomes simulation inputs;
// the flight carries them to the worker, so the experiment a job is keyed
// under is the one that runs. Errors are client errors (HTTP 400).
func (s *Server) resolve(req *SubmitRequest) (bench string, scale workloads.Scale, cfg *sim.Config, key string, err error) {
	if req.Bench == "" {
		return "", 0, nil, "", errors.New("missing bench")
	}
	if _, err := workloads.Get(req.Bench); err != nil {
		return "", 0, nil, "", err
	}
	named := sim.ByName(req.Config)
	if named == nil {
		return "", 0, nil, "", fmt.Errorf("unknown config %q (have %v)", req.Config, sim.Names())
	}
	scaleStr := req.Scale
	if scaleStr == "" {
		scaleStr = "bench"
	}
	if scale, err = workloads.ParseScale(scaleStr); err != nil {
		return "", 0, nil, "", err
	}
	cc := *named
	if len(req.Knobs) > 0 {
		if err := dse.Apply(&cc, req.Knobs); err != nil {
			return "", 0, nil, "", err
		}
	}
	cc.Check = req.Check
	cc.Watchdog = req.Watchdog
	if s.opts.SampleEvery > 0 {
		// Observation, not configuration: the sampler lives outside the
		// confhash identity, so sampled and unsampled runs share a key.
		cc.EnableSampling(s.opts.SampleEvery)
	}
	cc.Deadline = s.opts.DefaultDeadline
	if req.DeadlineMs > 0 {
		cc.Deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	if max := s.opts.MaxDeadline; max > 0 && (cc.Deadline == 0 || cc.Deadline > max) {
		cc.Deadline = max
	}
	if req.FaultSeed != 0 {
		switch req.FaultCampaign {
		case "", "jitter":
			cc.Faults = faults.Jitter(req.FaultSeed)
		case "storm":
			cc.Faults = faults.Storm(req.FaultSeed, 0)
		default:
			return "", 0, nil, "", fmt.Errorf("unknown fault campaign %q (want jitter or storm)", req.FaultCampaign)
		}
	}
	return req.Bench, scale, &cc, confhash.Key(req.Bench, scale.String(), &cc), nil
}

// job is the server-side record of one submission. Fields are guarded by
// the server mutex until the job reaches a terminal state (done is closed),
// after which they are immutable.
type job struct {
	id        string
	key       string
	bench     string
	config    string
	scaleStr  string
	cacheHit  bool
	submitted time.Time
	state     string
	res       *JobResult
	err       *JobError
	elapsed   time.Duration
	done      chan struct{}
}

// flight is one in-flight simulation: the single execution N deduplicated
// jobs are waiting on, with the resolved inputs it runs. A queued flight
// always runs; jobs join it until it completes.
type flight struct {
	key   string
	bench string
	scale workloads.Scale
	cfg   *sim.Config
	jobs  []*job
}

// JobStatus is the wire form of a job, returned by the submit, poll and
// list endpoints. A done job's result is read from
// GET /v1/jobs/{id}/result.
type JobStatus struct {
	ID        string     `json:"id"`
	Key       string     `json:"key"`
	Bench     string     `json:"bench"`
	Config    string     `json:"config"`
	Scale     string     `json:"scale"`
	State     string     `json:"state"`
	CacheHit  bool       `json:"cache_hit"`
	ElapsedMs int64      `json:"elapsed_ms,omitempty"`
	Error     *ErrorJSON `json:"error,omitempty"`
}

// Error codes of the stable /v1 error envelope. Every error body any /v1
// endpoint writes is {"error":{"code","message",...}} with code drawn from
// this set; clients switch on the code, never on the message text.
const (
	// ErrCodeBadRequest: the request itself is malformed (unknown bench,
	// config, scale, campaign, knob or field; bad JSON). HTTP 400.
	ErrCodeBadRequest = "bad_request"
	// ErrCodeNotFound: no such job id. HTTP 404.
	ErrCodeNotFound = "not_found"
	// ErrCodeDraining: the server is shutting down and refuses new work.
	// HTTP 503.
	ErrCodeDraining = "draining"
	// ErrCodeQueueFull: the bounded intake queue is at capacity. HTTP 503
	// with Retry-After: 1. Retry later — the experiment itself is fine.
	ErrCodeQueueFull = "queue_full"
	// ErrCodeWedge: the experiment is well-formed but cannot complete — a
	// watchdog trip, a blown deadline, an invariant violation or a dead
	// trace. Carries the full WedgeError diagnostics. HTTP 422.
	ErrCodeWedge = "wedge"
	// ErrCodeCheckFailed: the simulation ran to completion but computed a
	// functionally wrong answer. HTTP 422.
	ErrCodeCheckFailed = "check_failed"
	// ErrCodeInternal: a server-side fault (a recovered panic). HTTP 500.
	ErrCodeInternal = "internal"
)

// ErrorCodeStatus is the closed /v1 error-code set and each code's HTTP
// status — the single source of truth every error response takes its
// status from, and the documentation table in DESIGN.md is asserted
// against.
var ErrorCodeStatus = map[string]int{
	ErrCodeBadRequest:  400,
	ErrCodeNotFound:    404,
	ErrCodeDraining:    503,
	ErrCodeQueueFull:   503,
	ErrCodeWedge:       422,
	ErrCodeCheckFailed: 422,
	ErrCodeInternal:    500,
}

// ErrorJSON is the stable /v1 error envelope body. Code is always present;
// Confhash identifies the experiment for errors attached to a resolved
// job; the remaining fields carry WedgeError diagnostics for code "wedge".
type ErrorJSON struct {
	Code     string `json:"code"`
	Message  string `json:"message"`
	Confhash string `json:"confhash,omitempty"`

	Reason    string `json:"reason,omitempty"`
	Config    string `json:"config,omitempty"`
	Cycle     uint64 `json:"cycle,omitempty"`
	Retired   uint64 `json:"retired,omitempty"`
	Occupancy string `json:"occupancy,omitempty"`
}

// JobError is the normalized failure of one job execution: the stable wire
// envelope, whose code fixes the HTTP status through ErrorCodeStatus. The
// worker converts every failure into this form via toJobError.
type JobError struct {
	JSON ErrorJSON
}

func (e *JobError) Error() string { return e.JSON.Message }

// toJobError maps a native execution failure onto the envelope: wedges and
// functional miscompares are diagnosed experiment outcomes (422), recovered
// panics are server faults (500).
func toJobError(err error) *JobError {
	var je *JobError
	if errors.As(err, &je) {
		return je
	}
	var w *sim.WedgeError
	if errors.As(err, &w) {
		return &JobError{JSON: ErrorJSON{
			Code:      ErrCodeWedge,
			Message:   err.Error(),
			Reason:    w.Reason,
			Config:    w.Config,
			Cycle:     w.Cycle,
			Retired:   w.Retired,
			Occupancy: w.Occ.String(),
		}}
	}
	var p panicError
	if errors.As(err, &p) {
		return &JobError{JSON: ErrorJSON{Code: ErrCodeInternal, Message: err.Error()}}
	}
	// Anything else from the workload harness is a functional check
	// failure: the simulation ran but computed the wrong answer.
	return &JobError{JSON: ErrorJSON{Code: ErrCodeCheckFailed, Message: err.Error()}}
}

// panicError wraps a recovered worker panic so it maps to code "internal".
type panicError struct{ v any }

func (p panicError) Error() string { return fmt.Sprintf("worker panicked: %v", p.v) }
