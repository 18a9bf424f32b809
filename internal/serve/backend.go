package serve

import (
	"runtime"
	"sync/atomic"

	"repro/internal/workloads"
)

// Backend executes fully-resolved job specs on behalf of the server. Two
// implementations exist: the in-process pool (simulations run as goroutines
// inside the server binary, the historical behavior) and the subprocess
// fleet (each simulation runs in its own tarworker process, so a wedged or
// crashing model build can be SIGKILLed without taking the service down).
//
// The contract both must honor: Execute(spec) returns a *workloads.Result
// whose JobResult encoding is byte-identical across backends for the same
// spec, and every failure is (or converts via toJobError into) a *JobError
// carrying the stable wire envelope.
type Backend interface {
	// Kind names the backend on /healthz ("inprocess" or "subprocess").
	Kind() string
	// Execute runs one spec to completion, blocking the calling worker
	// goroutine. Concurrency is bounded by the server's worker pool, not
	// by the backend.
	Execute(spec *JobSpec) (*workloads.Result, error)
	// Workers reports the fleet's health for /healthz and the
	// tarserved_workers_* series on /metrics.
	Workers() WorkerStats
	// Close releases backend resources (kills idle workers). Called once,
	// after the server's drain completes.
	Close()
}

// WorkerStats is a backend's fleet health.
type WorkerStats struct {
	// Alive counts the execution slots currently able to take work: the
	// configured pool size for the in-process backend, live worker
	// processes for the subprocess fleet.
	Alive int
	// Restarts counts worker processes respawned after an unexpected
	// death, and Retries jobs re-executed after one (both always 0
	// in-process).
	Restarts int
	Retries  int
}

// inProcessBackend runs simulations as goroutines in the server process —
// the zero-overhead default. Isolation is panic recovery only: a wedge is
// detected by the simulator's own watchdog/deadline machinery, not by
// killing anything.
type inProcessBackend struct {
	run   RunFunc
	alive atomic.Int64
}

// newInProcessBackend wraps run (the real simulator, or a test stub) as a
// Backend with the given slot count.
func newInProcessBackend(run RunFunc, workers int) *inProcessBackend {
	if run == nil {
		run = defaultRun
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &inProcessBackend{run: run}
	b.alive.Store(int64(workers))
	return b
}

func (b *inProcessBackend) Kind() string         { return "inprocess" }
func (b *inProcessBackend) Workers() WorkerStats { return WorkerStats{Alive: int(b.alive.Load())} }
func (b *inProcessBackend) Close()               { b.alive.Store(0) }

func (b *inProcessBackend) Execute(spec *JobSpec) (*workloads.Result, error) {
	return execute(spec, b.run)
}

// execute builds the spec and runs it through run with panic isolation,
// mirroring the sweep runner's per-cell recovery: a model bug in one
// experiment must not take the service down. It is the one execution path
// of both backends — the in-process pool passes its RunFunc, tarworker
// passes defaultRun — so their failures classify identically.
func execute(spec *JobSpec, run RunFunc) (res *workloads.Result, err error) {
	cfg, scale, buildErr := spec.Build()
	if buildErr != nil {
		return nil, &JobError{Status: 400, JSON: ErrorJSON{Code: ErrCodeBadRequest, Message: buildErr.Error()}}
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, panicError{p}
		}
	}()
	return run(spec.Bench, cfg, scale)
}

var _ Backend = (*inProcessBackend)(nil)
var _ Backend = (*SubprocessBackend)(nil)
