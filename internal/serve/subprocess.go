package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/workloads"
)

// SubprocessOptions configures the out-of-process worker fleet.
type SubprocessOptions struct {
	// WorkerBin is the tarworker binary path (required).
	WorkerBin string
	// Workers is the fleet size (default GOMAXPROCS). Each worker process
	// runs exactly one job, then is recycled: the slot reaps the exited
	// process and pre-spawns a fresh one, so address-space leaks in a
	// long campaign can never accumulate.
	Workers int
	// Retry governs requeue-on-worker-death behavior.
	Retry RetryPolicy
	// KillGrace is how long past a job's deadline the supervisor waits
	// before SIGKILLing the worker (default 10s). The grace exists because
	// the simulator's own deadline machinery normally wins and reports a
	// structured wedge; the kill is the backstop for a model build whose
	// event loop is too stuck to notice its deadline.
	KillGrace time.Duration
	// Faults arms the supervisor-side fault campaign (WorkerKill drills).
	// This is the server operator's knob, deliberately outside sim.Config —
	// it perturbs the fleet, not the simulated machine, so it never enters
	// the confhash identity.
	Faults *faults.Config
	// Env overrides the worker process environment (nil = inherit).
	Env []string
	// Stderr receives worker stderr (default os.Stderr).
	Stderr io.Writer
}

// SubprocessBackend executes each job in its own tarworker process. The
// fleet is pre-spawned: Workers slot loops each keep one idle process
// blocked on stdin, so dispatch latency is a pipe write, not a fork+exec.
//
// Slot lifecycle: spawn → idle (awaiting a job or reaping an idle death) →
// busy (spec written, hello read, reply awaited) → reap → respawn. A worker
// that dies idle or mid-job counts as a restart; a worker that completes
// its one job and exits is a recycle, which is the normal path.
type SubprocessBackend struct {
	opts SubprocessOptions
	inj  *faults.Injector

	jobs chan *dispatch
	stop chan struct{}
	wg   sync.WaitGroup

	alive    atomic.Int64 // live worker processes
	restarts atomic.Int64 // respawns after an unexpected death or failed spawn
	retries  atomic.Int64 // job re-executions after a worker death

	// sleep is time.Sleep, substituted by the fake-clock retry tests.
	sleep func(time.Duration)

	busyMu sync.Mutex
	busy   map[int]int // slot → pid of the worker currently running a job

	closed sync.Once
}

// dispatch hands one job attempt to a slot and carries its outcome back.
type dispatch struct {
	spec    *JobSpec
	attempt int
	done    chan dispatchResult
}

type dispatchResult struct {
	res     *workloads.Result
	err     error // terminal (non-retryable) failure, nil on success
	crashed bool  // the worker died before delivering a reply
}

// NewSubprocessBackend starts the worker fleet. The returned backend is
// ready immediately; slots spawn their workers concurrently.
func NewSubprocessBackend(opts SubprocessOptions) (*SubprocessBackend, error) {
	if opts.WorkerBin == "" {
		return nil, errors.New("serve: SubprocessOptions.WorkerBin is required")
	}
	if _, err := exec.LookPath(opts.WorkerBin); err != nil {
		return nil, fmt.Errorf("serve: worker binary: %w", err)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.KillGrace <= 0 {
		opts.KillGrace = 10 * time.Second
	}
	if opts.Stderr == nil {
		opts.Stderr = os.Stderr
	}
	opts.Retry = opts.Retry.withDefaults()
	b := &SubprocessBackend{
		opts:  opts,
		inj:   faults.New(opts.Faults),
		jobs:  make(chan *dispatch),
		stop:  make(chan struct{}),
		sleep: time.Sleep,
		busy:  make(map[int]int),
	}
	for i := 0; i < opts.Workers; i++ {
		b.wg.Add(1)
		go b.slotLoop(i)
	}
	return b, nil
}

func (b *SubprocessBackend) Kind() string { return "subprocess" }

func (b *SubprocessBackend) Workers() WorkerStats {
	return WorkerStats{
		Alive:    int(b.alive.Load()),
		Restarts: int(b.restarts.Load()),
		Retries:  int(b.retries.Load()),
	}
}

// Close stops every slot and kills idle workers. Jobs already being served
// run to completion first (the server drains before closing the backend).
func (b *SubprocessBackend) Close() {
	b.closed.Do(func() { close(b.stop) })
	b.wg.Wait()
}

// Execute runs one spec on the fleet, retrying worker deaths per the
// policy. Failures come back as *JobError; a crash that exhausts the retry
// budget maps to code "worker_crash" (HTTP 500).
func (b *SubprocessBackend) Execute(spec *JobSpec) (*workloads.Result, error) {
	return retryCrashes(b.opts.Retry, b.sleep, func(try int) (*workloads.Result, bool, error) {
		if try > 0 {
			b.retries.Add(1)
		}
		d := &dispatch{spec: spec, attempt: try, done: make(chan dispatchResult, 1)}
		select {
		case b.jobs <- d:
		case <-b.stop:
			return nil, false, &JobError{Status: 503, JSON: ErrorJSON{Code: ErrCodeDraining, Message: "backend is shutting down"}}
		}
		r := <-d.done
		if r.crashed {
			return nil, true, r.err
		}
		return r.res, false, r.err
	})
}

// busyPids snapshots the pids of workers currently running a job —
// the SIGKILL-drill tests aim at these.
func (b *SubprocessBackend) busyPids() []int {
	b.busyMu.Lock()
	defer b.busyMu.Unlock()
	pids := make([]int, 0, len(b.busy))
	for _, pid := range b.busy {
		pids = append(pids, pid)
	}
	return pids
}

// slotLoop is one slot's lifecycle: keep a worker pre-spawned and idle,
// serve one job through it, reap it, respawn.
func (b *SubprocessBackend) slotLoop(slot int) {
	defer b.wg.Done()
	for {
		select {
		case <-b.stop:
			return
		default:
		}
		w, err := b.spawn()
		if err != nil {
			// Spawn failure (binary vanished, fd exhaustion): count it,
			// back off, try again. Alive stays low, which /healthz reports.
			fmt.Fprintf(b.opts.Stderr, "serve: worker spawn failed: %v\n", err)
			b.restarts.Add(1)
			select {
			case <-b.stop:
				return
			case <-time.After(500 * time.Millisecond):
			}
			continue
		}
		select {
		case <-b.stop:
			w.kill()
			w.await(time.Second)
			return
		case <-w.exited:
			// Idle death: the worker crashed before receiving any job.
			b.restarts.Add(1)
			continue
		case d := <-b.jobs:
			b.serve(slot, w, d)
		}
	}
}

// serve runs one dispatch on one worker, tracking the busy pid for the
// fault drills, and reports the outcome.
func (b *SubprocessBackend) serve(slot int, w *workerProc, d *dispatch) {
	b.busyMu.Lock()
	b.busy[slot] = w.cmd.Process.Pid
	b.busyMu.Unlock()
	defer func() {
		b.busyMu.Lock()
		delete(b.busy, slot)
		b.busyMu.Unlock()
	}()
	res, crashed, err := b.runJob(w, d)
	if crashed {
		b.restarts.Add(1)
	}
	d.done <- dispatchResult{res: res, err: err, crashed: crashed}
}

// runJob drives the worker protocol for one attempt. crashed=true means the
// worker died (or broke the protocol) before delivering a reply — the
// caller's retry loop decides whether to requeue.
func (b *SubprocessBackend) runJob(w *workerProc, d *dispatch) (res *workloads.Result, crashed bool, err error) {
	spec := d.spec

	// Deadline backstop: the simulator inside the worker enforces
	// spec.DeadlineMs itself and reports a structured wedge; the SIGKILL
	// only fires when the worker is too stuck even for that.
	if spec.DeadlineMs > 0 {
		t := time.AfterFunc(time.Duration(spec.DeadlineMs)*time.Millisecond+b.opts.KillGrace, w.kill)
		defer t.Stop()
	}

	payload, merr := json.Marshal(spec)
	if merr != nil {
		w.kill()
		w.await(time.Second)
		return nil, false, &JobError{Status: 500, JSON: ErrorJSON{Code: ErrCodeInternal, Message: "encode job spec: " + merr.Error()}}
	}
	payload = append(payload, '\n')
	if _, werr := w.stdin.Write(payload); werr != nil {
		w.kill()
		w.await(time.Second)
		return nil, true, fmt.Errorf("worker died before accepting the job: %w", werr)
	}
	w.stdin.Close()

	hello, herr := w.readLine()
	if herr != nil {
		w.await(time.Second)
		return nil, true, fmt.Errorf("worker died before starting the job: %w", herr)
	}
	var h workerHello
	if jerr := json.Unmarshal(hello, &h); jerr != nil || h.Event != "start" {
		w.kill()
		w.await(time.Second)
		return nil, true, fmt.Errorf("worker protocol corrupt (hello %q)", truncate(hello, 120))
	}
	if h.Schema != SchemaVersion {
		// Deterministic build skew: retrying cannot help, fail loudly.
		w.kill()
		w.await(time.Second)
		return nil, false, &JobError{Status: 500, JSON: ErrorJSON{
			Code:    ErrCodeInternal,
			Message: fmt.Sprintf("worker schema skew: worker writes schema %d, server expects %d — redeploy matching binaries", h.Schema, SchemaVersion),
		}}
	}

	// Fault drill: SIGKILL the worker mid-job for targeted cells. A short
	// simulation can finish before the signal lands, so a reply may already
	// sit in the pipe; it is discarded, and the attempt counts as crashed
	// whatever the pipe holds. The drill's outcome then depends on the
	// attempt number alone, never on how the kill raced the simulation.
	if b.inj.KillWorker(spec.CellKey(), d.attempt) {
		w.kill()
		w.await(time.Second)
		return nil, true, errors.New("worker died mid-job: killed by the fault drill")
	}

	reply, rerr := w.readLine()
	if rerr != nil {
		w.await(time.Second)
		return nil, true, fmt.Errorf("worker died mid-job: %w", rerr)
	}
	w.await(5 * time.Second)

	var wr workerReply
	if jerr := json.Unmarshal(reply, &wr); jerr != nil {
		return nil, true, fmt.Errorf("worker protocol corrupt (reply %q)", truncate(reply, 120))
	}
	if !wr.OK {
		if wr.Error == nil {
			return nil, true, errors.New("worker reply carries neither result nor error")
		}
		status := wr.Status
		if status == 0 {
			status = 500
		}
		return nil, false, &JobError{Status: status, JSON: *wr.Error}
	}
	if wr.Result == nil {
		return nil, true, errors.New("worker reply ok without a result")
	}
	out, cerr := resultFromWire(wr.Result)
	if cerr != nil {
		return nil, false, &JobError{Status: 500, JSON: ErrorJSON{Code: ErrCodeInternal, Message: cerr.Error()}}
	}
	return out, false, nil
}

func truncate(b []byte, n int) string {
	s := strings.TrimSpace(string(b))
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}

// workerProc is one live tarworker process.
type workerProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	exited chan struct{}
}

// spawn starts one worker process and its reaper goroutine. The reaper is
// the single place the alive gauge decrements, so every exit path — recycle,
// crash, SIGKILL — balances the spawn-time increment exactly once.
func (b *SubprocessBackend) spawn() (*workerProc, error) {
	cmd := exec.Command(b.opts.WorkerBin)
	cmd.Env = b.opts.Env
	cmd.Stderr = b.opts.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &workerProc{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout), exited: make(chan struct{})}
	b.alive.Add(1)
	go func() {
		cmd.Wait()
		b.alive.Add(-1)
		close(w.exited)
	}()
	return w, nil
}

// kill SIGKILLs the worker. Idempotent; errors (already dead) are ignored.
func (w *workerProc) kill() {
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
}

// await blocks until the process is reaped, escalating to SIGKILL if it
// lingers past d (a worker has nothing left to do after its reply).
func (w *workerProc) await(d time.Duration) {
	select {
	case <-w.exited:
	case <-time.After(d):
		w.kill()
		<-w.exited
	}
}

// readLine returns the next newline-delimited protocol message. EOF (the
// pipe closing on process death) surfaces as an error.
func (w *workerProc) readLine() ([]byte, error) {
	line, err := w.stdout.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	return line, nil
}
