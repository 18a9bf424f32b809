package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/vasm"
)

// RunSpec describes one simulation for Execute. Exactly one execution mode
// must be selected:
//
//   - Kernel (optionally with Setup): one kernel on a fresh machine. When
//     Setup is present it runs first on the same chip as a warm-up phase and
//     the returned statistics cover the region of interest alone.
//   - Kernels: SMT — one kernel per hardware thread, each with its own
//     architectural machine and address space, sharing caches, Vbox and the
//     memory system.
//   - Trace / Traces: drive a caller-assembled Chip with pre-built traces
//     (the low-level surface tarsim's sampler path uses). Requires Chip.
//
// Config supplies the machine for the kernel modes; the trace modes take
// the configuration from Chip.Cfg instead.
type RunSpec struct {
	// Config is the machine configuration (kernel modes). Ignored when Chip
	// is set.
	Config *Config

	// Chip, when non-nil, is a caller-assembled chip to drive (trace modes);
	// it carries its own configuration and accumulated state.
	Chip *Chip

	// Setup is an optional warm-up kernel (cache warming, data preloading)
	// excluded from the returned statistics — the equivalent of starting the
	// STREAM timer after the warm-up pass. Only valid with Kernel.
	Setup vasm.Kernel

	// Kernel is the single-threaded kernel.
	Kernel vasm.Kernel

	// Kernels is the SMT mode: one kernel per hardware thread.
	Kernels []vasm.Kernel

	// WarmupSnapshot, when non-nil, is a chip snapshot (SaveState blob)
	// captured at this spec's post-Setup boundary on a matching
	// configuration. The run restores it instead of simulating Setup —
	// bit-identical to the straight run, minus the warm-up cycles. Only
	// valid with Setup+Kernel.
	WarmupSnapshot []byte

	// OnWarmupSnapshot, when non-nil, receives the encoded chip state and
	// its cycle at the post-Setup quiescent boundary, right before the
	// region of interest starts. Ignored when WarmupSnapshot already
	// skipped the warm-up phase. Only valid with Setup+Kernel.
	OnWarmupSnapshot func(cycle uint64, blob []byte)

	// Trace is a pre-built trace to drive on Chip.
	Trace *vasm.Trace

	// Traces drives Chip with one pre-built trace per hardware thread.
	Traces []*vasm.Trace
}

// Outcome is the result of one Execute call. On failure the returned error
// is a typed *WedgeError and the Outcome still carries the statistics and
// machine state at the moment of failure — post-mortems read the partial
// Outcome next to the error.
type Outcome struct {
	// Stats are the run's counters. For a Setup+Kernel run they cover the
	// region of interest alone; otherwise they are the chip's counters
	// (cumulative across phases when a Chip is reused).
	Stats *stats.Stats

	// Machine is the architectural state after a single-threaded run.
	Machine *arch.Machine

	// Machines holds the per-thread architectural state of an SMT run.
	Machines []*arch.Machine

	// Chip is the chip that executed the spec, for callers that want to keep
	// driving it (further phases, sampler dumps, occupancy reads).
	Chip *Chip

	// Series is the cycle-interval sample series, present only when the
	// configuration armed the sampler and the run succeeded.
	Series *metrics.SeriesDump

	// WarmupCycles is the cycle of the post-Setup boundary: the cost of the
	// warm-up phase, whether it was simulated or skipped via
	// RunSpec.WarmupSnapshot. Zero when the spec had no Setup.
	WarmupCycles uint64

	// WarmupRestored reports that the warm-up phase was restored from a
	// snapshot instead of simulated — WarmupCycles is then the simulation
	// cost the restore avoided.
	WarmupRestored bool

	// SimCycles and SimWall are the chip's cumulative simulated cycles
	// (drain included) and the wall-clock time its cycle loop consumed
	// producing them — together, the run's simulation throughput
	// (cycles/sec). Cumulative across phases when a Chip is reused.
	SimCycles uint64
	SimWall   time.Duration
}

// MCPS returns the outcome's simulation throughput in millions of simulated
// cycles per wall-clock second (0 when no loop time was recorded).
func (o *Outcome) MCPS() float64 {
	if o.SimWall <= 0 {
		return 0
	}
	return float64(o.SimCycles) / o.SimWall.Seconds() / 1e6
}

// Execute runs one simulation described by spec. It is the single execution
// entry point. A wedged machine, a blown deadline, a failed invariant or a
// dead trace returns a typed *WedgeError; the Outcome is non-nil even then,
// carrying the partial statistics and machine state for post-mortems.
func Execute(spec RunSpec) (*Outcome, error) {
	modes := 0
	if spec.Kernel != nil {
		modes++
	}
	if spec.Kernels != nil {
		modes++
	}
	if spec.Trace != nil {
		modes++
	}
	if spec.Traces != nil {
		modes++
	}
	if modes != 1 {
		return nil, fmt.Errorf("sim: RunSpec must select exactly one of Kernel, Kernels, Trace or Traces (got %d)", modes)
	}
	if spec.Setup != nil && spec.Kernel == nil {
		return nil, errors.New("sim: RunSpec.Setup is only valid with Kernel")
	}
	if (spec.WarmupSnapshot != nil || spec.OnWarmupSnapshot != nil) && spec.Setup == nil {
		return nil, errors.New("sim: RunSpec warm-up snapshot hooks are only valid with Setup")
	}
	switch {
	case spec.Trace != nil, spec.Traces != nil:
		if spec.Chip == nil {
			return nil, errors.New("sim: RunSpec trace modes require Chip")
		}
		return executeTraces(spec)
	default:
		if spec.Chip != nil {
			return nil, errors.New("sim: RunSpec kernel modes assemble their own chip; drive an existing Chip with Trace/Traces")
		}
		if spec.Config == nil {
			return nil, errors.New("sim: RunSpec.Config is required")
		}
		if spec.Kernels != nil {
			return executeSMT(spec)
		}
		return executeKernel(spec)
	}
}

// executeKernel runs Setup (optional) then Kernel on one fresh chip.
func executeKernel(spec RunSpec) (*Outcome, error) {
	cfg := spec.Config
	var (
		m    *arch.Machine
		chip *Chip
	)
	if spec.WarmupSnapshot != nil {
		var err error
		chip, m, err = RestoreChip(cfg, spec.WarmupSnapshot)
		if err != nil {
			return nil, fmt.Errorf("sim: restoring warm-up snapshot: %w", err)
		}
	} else {
		m = arch.New(mem.New())
		chip = New(cfg)
	}
	out := &Outcome{Stats: chip.Stats, Machine: m, Chip: chip}
	if spec.WarmupSnapshot != nil {
		out.WarmupCycles = chip.Clock()
		out.WarmupRestored = true
	} else if spec.Setup != nil {
		setup := spec.Setup
		tr := vasm.NewTrace(m, func(b *vasm.Builder) { setup(b); b.Halt() })
		err := chip.runTraces([]*vasm.Trace{tr}, false)
		tr.Close()
		if err != nil {
			return out, err
		}
		out.WarmupCycles = chip.Clock()
		// Capture before ResetHalt: SaveState requires the halted, drained
		// boundary state, and a restored chip comes up un-halted anyway
		// (New + LoadState is equivalent to the post-ResetHalt chip).
		if spec.OnWarmupSnapshot != nil {
			blob, err := chip.SaveState(m)
			if err != nil {
				return out, fmt.Errorf("sim: capturing warm-up snapshot: %w", err)
			}
			spec.OnWarmupSnapshot(chip.Clock(), blob)
		}
		chip.c.ResetHalt()
	}
	before := *chip.Stats
	tr := vasm.NewTrace(m, spec.Kernel)
	defer tr.Close()
	if err := chip.runTraces([]*vasm.Trace{tr}, false); err != nil {
		return out, err
	}
	if spec.Setup != nil {
		out.Stats = stats.Sub(chip.Stats, &before)
	}
	finishOutcome(out, chip)
	return out, nil
}

// executeSMT runs one kernel per hardware thread on one fresh chip.
func executeSMT(spec RunSpec) (*Outcome, error) {
	chip := New(spec.Config)
	machines := make([]*arch.Machine, len(spec.Kernels))
	traces := make([]*vasm.Trace, len(spec.Kernels))
	for i, k := range spec.Kernels {
		machines[i] = arch.New(mem.New())
		traces[i] = vasm.NewTrace(machines[i], k)
		defer traces[i].Close()
	}
	out := &Outcome{Stats: chip.Stats, Machines: machines, Chip: chip}
	if err := chip.runTraces(traces, true); err != nil {
		return out, err
	}
	finishOutcome(out, chip)
	return out, nil
}

// executeTraces drives a caller-assembled chip with pre-built traces.
func executeTraces(spec RunSpec) (*Outcome, error) {
	ch := spec.Chip
	out := &Outcome{Stats: ch.Stats, Chip: ch}
	var err error
	if spec.Trace != nil {
		err = ch.runTraces([]*vasm.Trace{spec.Trace}, false)
	} else {
		err = ch.runTraces(spec.Traces, true)
	}
	if err != nil {
		return out, err
	}
	finishOutcome(out, ch)
	return out, nil
}

// finishOutcome attaches the sampler series and the loop throughput to a
// successful outcome and feeds the configuration's OnSeries callback.
func finishOutcome(out *Outcome, ch *Chip) {
	out.Series = ch.Series()
	out.SimCycles = ch.Clock()
	out.SimWall = ch.SimWall()
	if ch.Cfg.onSeries != nil {
		ch.Cfg.onSeries(out.Series)
	}
}

// runTraces binds trs to the chip (SMT binding when smt is true, which is
// also how a single-trace slice of the SMT surface stays distinct from the
// single-threaded binding) and drives the machine to completion.
func (ch *Chip) runTraces(trs []*vasm.Trace, smt bool) error {
	if smt {
		ch.c.BindSMT(trs)
	} else {
		ch.c.Bind(trs[0])
	}
	t0 := time.Now()
	err := ch.runBound(trs)
	ch.simWall += time.Since(t0)
	return err
}
