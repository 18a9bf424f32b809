package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/confhash"
	"repro/internal/workloads"
)

// Worker wire protocol (cmd/tarworker ↔ SubprocessBackend), newline-delimited
// JSON over the worker's stdin/stdout:
//
//	supervisor → worker:  one JobSpec, then stdin is closed
//	worker → supervisor:  workerHello as soon as the spec is accepted
//	worker → supervisor:  workerReply when the simulation finishes, then exit
//
// A worker runs exactly one job and exits. Crash isolation falls out of the
// process boundary: if the reply line never arrives, the supervisor knows
// the worker died mid-simulation and retries the job elsewhere.

// workerHello is the worker's first output line: the spec parsed, the
// simulation about to start. It carries the worker's schema so a skewed
// binary pairing (old tarworker next to a new tarserved) fails loudly
// before any simulation time is spent.
type workerHello struct {
	Event  string `json:"event"` // always "start"
	Schema int    `json:"schema"`
	Pid    int    `json:"pid"`
}

// workerReply is the worker's final output line. Exactly one of Result and
// Error is set; Status is the HTTP status the error maps to (the worker
// classifies its own failures so the envelope is byte-identical to the
// in-process backend's).
type workerReply struct {
	OK     bool       `json:"ok"`
	Result *JobResult `json:"result,omitempty"`
	Status int        `json:"status,omitempty"`
	Error  *ErrorJSON `json:"error,omitempty"`
}

// WorkerMain is the entire body of cmd/tarworker: read one JobSpec from r,
// run it, write the hello and reply lines to w, return the process exit
// code. Exit 0 covers handled simulation failures too (the reply line
// carries the envelope); a non-zero exit means the protocol itself broke.
func WorkerMain(r io.Reader, w io.Writer) int {
	return workerRun(r, w, nil)
}

// workerRun is WorkerMain with a test seam: afterStart (when non-nil) runs
// between the hello line and the simulation, giving tests a deterministic
// window in which the worker is visibly busy.
func workerRun(r io.Reader, w io.Writer, afterStart func()) int {
	out := bufio.NewWriter(w)
	defer out.Flush()
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := out.Write(b); err != nil {
			return err
		}
		return out.Flush()
	}

	var spec JobSpec
	if err := json.NewDecoder(r).Decode(&spec); err != nil {
		fmt.Fprintln(os.Stderr, "tarworker: bad job spec:", err)
		return 2
	}
	if err := emit(workerHello{Event: "start", Schema: SchemaVersion, Pid: os.Getpid()}); err != nil {
		fmt.Fprintln(os.Stderr, "tarworker:", err)
		return 2
	}
	if afterStart != nil {
		afterStart()
	}

	res, runErr := execute(&spec, defaultRun)
	if runErr != nil {
		je := toJobError(runErr)
		if emitErr := emit(workerReply{OK: false, Status: je.Status, Error: &je.JSON}); emitErr != nil {
			fmt.Fprintln(os.Stderr, "tarworker:", emitErr)
			return 2
		}
		return 0
	}
	cfg, scale, _ := spec.Build() // already validated by execute
	key := confhash.Key(spec.Bench, scale.String(), cfg)
	if err := emit(workerReply{OK: true, Result: EncodeResult(key, res)}); err != nil {
		fmt.Fprintln(os.Stderr, "tarworker:", err)
		return 2
	}
	return 0
}

// resultFromWire reconstructs a workloads.Result from a worker's JobResult.
// Only the fields EncodeResult reads are rebuilt; because stats counters are
// integers and series samples round-trip exactly through JSON, re-encoding
// the reconstruction yields bytes identical to the worker's own encoding —
// which is what keeps the cross-backend byte-equality contract honest.
func resultFromWire(jr *JobResult) (*workloads.Result, error) {
	scale, err := workloads.ParseScale(jr.Scale)
	if err != nil {
		return nil, fmt.Errorf("worker result carries bad scale %q: %w", jr.Scale, err)
	}
	if jr.Stats == nil {
		return nil, fmt.Errorf("worker result for %s@%s carries no stats", jr.Bench, jr.Config)
	}
	return &workloads.Result{
		Bench:     jr.Bench,
		Config:    jr.Config,
		Scale:     scale,
		Stats:     jr.Stats,
		Series:    jr.Series,
		SimCycles: jr.SimCycles,
		WallNs:    jr.SimWallNs,
	}, nil
}
