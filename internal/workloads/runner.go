package workloads

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Result is one benchmark execution on one machine.
type Result struct {
	Bench  string
	Config string
	Scale  Scale
	Stats  *stats.Stats
	// Series is the cycle-interval sample series, present only when the
	// configuration armed the sampler (Config.EnableSampling). For ROI
	// benchmarks it covers the whole run including warm-up, since the
	// sampler observes the chip, not the ROI window.
	Series *metrics.SeriesDump
	// SimCycles and WallNs are the chip's total simulated cycles (all
	// phases, drain included) and the wall-clock nanoseconds its cycle
	// loop consumed — the run's simulation throughput, independent of
	// trace-construction and verification overhead.
	SimCycles uint64
	WallNs    int64
	// WarmupCycles is the cycle cost of the warm-up phase (0 when the
	// benchmark has none); WarmupRestored reports it was restored from a
	// snapshot instead of simulated, in which case SimCycles still counts
	// it (restore lands the clock at the boundary) but WallNs does not.
	WarmupCycles   uint64
	WarmupRestored bool
}

// MCPS returns the run's simulation throughput in millions of simulated
// cycles per wall-clock second (0 when no loop time was recorded).
func (r *Result) MCPS() float64 {
	if r.WallNs <= 0 {
		return 0
	}
	return float64(r.SimCycles) / (float64(r.WallNs) / 1e9) / 1e6
}

// OPC returns the Figure 6 quantities.
func (r *Result) OPC() (opc, fpc, mpc, other float64) { return r.Stats.OPC() }

// Run executes the benchmark on cfg, using the vector kernel when the
// machine has a Vbox and the scalar kernel otherwise. The warm-up setup
// phase (when the benchmark defines one) is excluded from the returned
// statistics, and the functional result is verified. A wedged, deadlined
// or invariant-violating run comes back as an error (a *sim.WedgeError
// wrapped with the benchmark/machine pair), not a panic.
func (b *Benchmark) Run(cfg *sim.Config, s Scale) (*Result, error) {
	return b.RunOpt(cfg, s, RunOpts{})
}

// RunOpts carries the optional warm-up snapshot hooks of one execution:
// tarsim's -ckpt-at captures the post-Setup state and -resume restores it.
type RunOpts struct {
	// WarmupSnapshot, when non-nil, restores the post-Setup chip state
	// from the blob instead of simulating the warm-up phase. It must have
	// been captured for the same benchmark, scale and configuration; only
	// meaningful for benchmarks with a Setup.
	WarmupSnapshot []byte
	// OnWarmupSnapshot, when non-nil, receives the chip state captured at
	// the post-Setup boundary. Ignored when WarmupSnapshot skipped the
	// warm-up, or when the benchmark has no Setup.
	OnWarmupSnapshot func(cycle uint64, blob []byte)
}

// RunOpt is Run with warm-up snapshot hooks: restore the post-Setup state
// instead of simulating it, or capture that state for later reuse.
func (b *Benchmark) RunOpt(cfg *sim.Config, s Scale, opts RunOpts) (*Result, error) {
	kernelFn := b.Scalar
	if cfg.HasVbox {
		kernelFn = b.Vector
	}
	spec := sim.RunSpec{Config: cfg, Kernel: kernelFn(s)}
	if b.Setup != nil {
		spec.Setup = b.Setup(s, cfg.HasVbox)
		spec.WarmupSnapshot = opts.WarmupSnapshot
		spec.OnWarmupSnapshot = opts.OnWarmupSnapshot
	}
	out, err := sim.Execute(spec)
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", b.Name, cfg.Name, err)
	}
	if b.Check != nil {
		if err := b.Check(out.Machine, s); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", b.Name, cfg.Name, err)
		}
	}
	return &Result{
		Bench: b.Name, Config: cfg.Name, Scale: s,
		Stats: out.Stats, Series: out.Series,
		SimCycles: out.SimCycles, WallNs: int64(out.SimWall),
		WarmupCycles: out.WarmupCycles, WarmupRestored: out.WarmupRestored,
	}, nil
}
