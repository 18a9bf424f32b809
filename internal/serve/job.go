package serve

import (
	"errors"
	"fmt"
	"time"

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
// exactly the vocabulary of the CLI tools (tarsim flags map 1:1 onto these
// fields). The zero value of every optional field means "the default the
// CLI would use".
type SubmitRequest struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
	// Scale is test, bench or full (default bench).
	Scale string `json:"scale,omitempty"`
	// NoPump disables stride-1 double-bandwidth mode (Figure 9 ablation).
	NoPump bool `json:"nopump,omitempty"`
	// Check runs the cell under the microarchitectural invariant checker.
	Check bool `json:"check,omitempty"`
	// DeadlineMs caps the simulation's wall-clock time; 0 inherits the
	// server default, and values above the server maximum are clamped.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// QueueWaitMs caps how long this job may wait for a worker before being
	// shed with code "deadline_exceeded"; 0 inherits the server's queue-wait
	// bound, and values above it are clamped. The request's deadline thus
	// propagates through the queue: a job that cannot start in time is shed
	// without ever occupying a worker.
	QueueWaitMs int64 `json:"queue_wait_ms,omitempty"`
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

// JobSpec is the fully-resolved description of one simulation: a
// SubmitRequest after server-side defaulting (deadline resolution and
// clamping, observability knobs). It is the unit of work a worker executes,
// and the same spec reproduces the same simulation — and the same JobResult
// bytes.
type JobSpec struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
	Scale  string `json:"scale"`
	NoPump bool   `json:"nopump,omitempty"`
	Check  bool   `json:"check,omitempty"`
	// DeadlineMs is the resolved wall-clock budget (server default applied,
	// request override clamped). Zero disables the deadline.
	DeadlineMs    int64  `json:"deadline_ms,omitempty"`
	Watchdog      uint64 `json:"watchdog,omitempty"`
	FaultSeed     int64  `json:"fault_seed,omitempty"`
	FaultCampaign string `json:"fault_campaign,omitempty"`
	// Knobs are the design-space-exploration perturbations applied to the
	// named config inside Build.
	Knobs map[string]float64 `json:"knobs,omitempty"`
	// SampleEvery arms the cycle-interval sampler. It lives outside the
	// confhash identity (observation, not configuration), so it rides in
	// the spec rather than the sim.Config hash.
	SampleEvery uint64 `json:"sample_every,omitempty"`
}

// Build validates the spec and assembles the decorated machine
// configuration plus the parsed scale. BuildSpec calls it when a request is
// resolved and the worker again when it executes the spec, so both see
// identical simulation inputs.
func (sp *JobSpec) Build() (*sim.Config, workloads.Scale, error) {
	if sp.Bench == "" {
		return nil, 0, errors.New("missing bench")
	}
	if _, err := workloads.Get(sp.Bench); err != nil {
		return nil, 0, err
	}
	cfg := sim.ByName(sp.Config)
	if cfg == nil {
		return nil, 0, fmt.Errorf("unknown config %q (have %v)", sp.Config, sim.Names())
	}
	scaleStr := sp.Scale
	if scaleStr == "" {
		scaleStr = "bench"
	}
	scale, err := workloads.ParseScale(scaleStr)
	if err != nil {
		return nil, 0, err
	}
	if sp.NoPump {
		cfg = sim.NoPump(cfg)
	}
	cc := *cfg
	if len(sp.Knobs) > 0 {
		if err := dse.Apply(&cc, sp.Knobs); err != nil {
			return nil, 0, err
		}
	}
	cc.Check = sp.Check
	cc.Watchdog = sp.Watchdog
	if sp.SampleEvery > 0 {
		cc.EnableSampling(sp.SampleEvery)
	}
	cc.Deadline = time.Duration(sp.DeadlineMs) * time.Millisecond
	if sp.FaultSeed != 0 {
		switch sp.FaultCampaign {
		case "", "jitter":
			cc.Faults = faults.Jitter(sp.FaultSeed)
		case "storm":
			cc.Faults = faults.Storm(sp.FaultSeed, 0)
		default:
			return nil, 0, fmt.Errorf("unknown fault campaign %q (want jitter or storm)", sp.FaultCampaign)
		}
	}
	return &cc, scale, nil
}

// SpecDefaults are the server-side knobs folded into a request when it is
// resolved into a JobSpec: deadline defaulting and clamping, plus the
// observability sampler. The zero value applies nothing.
type SpecDefaults struct {
	// DefaultDeadline is applied when the request sets no deadline_ms;
	// MaxDeadline clamps what a request may ask for. Zero disables each.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// SampleEvery arms the cycle-interval sampler on the resolved spec
	// (outside the confhash identity).
	SampleEvery uint64
}

// BuildSpec is the single request→spec build path: it resolves a
// SubmitRequest against the given defaults and validates it by assembling
// the decorated machine configuration plus the parsed scale. Every
// submission goes through here, and the worker rebuilds the resolved spec
// with JobSpec.Build, so one request resolves to identical simulation
// inputs everywhere.
func BuildSpec(req *SubmitRequest, d SpecDefaults) (*JobSpec, *sim.Config, workloads.Scale, error) {
	sp := &JobSpec{
		Bench:         req.Bench,
		Config:        req.Config,
		Scale:         req.Scale,
		NoPump:        req.NoPump,
		Check:         req.Check,
		Watchdog:      req.Watchdog,
		FaultSeed:     req.FaultSeed,
		FaultCampaign: req.FaultCampaign,
		Knobs:         req.Knobs,
	}
	if sp.Scale == "" {
		sp.Scale = "bench"
	}
	deadline := d.DefaultDeadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	if max := d.MaxDeadline; max > 0 && (deadline == 0 || deadline > max) {
		deadline = max
	}
	sp.DeadlineMs = deadline.Milliseconds()
	if d.SampleEvery > 0 {
		// Server-side observability knob; lives outside the confhash
		// identity so sampled and unsampled runs share a content key.
		sp.SampleEvery = d.SampleEvery
	}
	cfg, scale, err := sp.Build()
	if err != nil {
		return nil, nil, 0, err
	}
	return sp, cfg, scale, nil
}

// resolveSpec turns a request into the fully-resolved JobSpec (server
// defaults applied) plus its built configuration and scale. Validation
// failures are client errors (HTTP 400).
func (s *Server) resolveSpec(req *SubmitRequest) (*JobSpec, *sim.Config, workloads.Scale, error) {
	return BuildSpec(req, SpecDefaults{
		DefaultDeadline: s.opts.DefaultDeadline,
		MaxDeadline:     s.opts.MaxDeadline,
		SampleEvery:     s.opts.SampleEvery,
	})
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
// jobs are waiting on. deadline (when set) bounds its queue wait — the shed
// janitor and the dequeuing worker both honor it; started/shed are the
// handshake that makes shedding and execution mutually exclusive (guarded
// by the server mutex).
type flight struct {
	key      string
	spec     *JobSpec
	jobs     []*job
	deadline time.Time
	started  bool
	shed     bool
}

// JobStatus is the wire form of a job, returned by the submit and poll
// endpoints.
type JobStatus struct {
	ID        string     `json:"id"`
	Key       string     `json:"key"`
	Bench     string     `json:"bench"`
	Config    string     `json:"config"`
	Scale     string     `json:"scale"`
	State     string     `json:"state"`
	CacheHit  bool       `json:"cache_hit"`
	ElapsedMs int64      `json:"elapsed_ms,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
	Error     *ErrorJSON `json:"error,omitempty"`
}

// Error codes of the stable /v1 error envelope. Every error body any /v1
// endpoint writes is {"error":{"code","message",...}} with code drawn from
// this set; clients switch on the code, never on the message text.
const (
	// ErrCodeBadRequest: the request itself is malformed (unknown bench,
	// config, scale or campaign; bad JSON). HTTP 400.
	ErrCodeBadRequest = "bad_request"
	// ErrCodeNotFound: no such job id. HTTP 404.
	ErrCodeNotFound = "not_found"
	// ErrCodeDraining: the server is shutting down and refuses new work.
	// HTTP 503.
	ErrCodeDraining = "draining"
	// ErrCodeQueueFull: the intake queue is at capacity, or the admission
	// controller estimates the queue wait would blow the job's deadline
	// anyway. HTTP 503 with a Retry-After header. Retry later — the
	// experiment itself is fine.
	ErrCodeQueueFull = "queue_full"
	// ErrCodeDeadlineExceeded: the job's deadline expired while it was
	// still queued; it was shed without occupying a worker. HTTP 504.
	ErrCodeDeadlineExceeded = "deadline_exceeded"
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
	ErrCodeBadRequest:       400,
	ErrCodeNotFound:         404,
	ErrCodeDraining:         503,
	ErrCodeQueueFull:        503,
	ErrCodeDeadlineExceeded: 504,
	ErrCodeWedge:            422,
	ErrCodeCheckFailed:      422,
	ErrCodeInternal:         500,
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
	// RetryAfter, when positive, becomes the HTTP Retry-After header on the
	// rejection response (code "queue_full"): the admission controller's
	// estimate of when capacity frees up. Not part of the JSON envelope.
	RetryAfter time.Duration
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
