// Package sim assembles the whole-chip simulator and defines the four
// machine configurations of Table 3 (EV8, EV8+, T, T4) plus the T10 point
// of Figure 8. A Chip runs one hand-coded kernel trace to completion and
// returns the statistics the evaluation harness turns into the paper's
// tables and figures.
package sim

import (
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/l2"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/vasm"
	"repro/internal/vbox"
	"repro/internal/zbox"
)

// Config is a whole-machine configuration.
type Config struct {
	Name   string
	CPUGHz float64

	HasVbox bool

	Core core.Config
	Vbox vbox.Config
	L2   l2.Config
	Zbox zbox.Config

	// ---- integrity layer (all optional; zero values = today's behavior) ----

	// Check enables the microarchitectural invariant checker: per-retirement
	// validation of ROB order, store-queue consistency and L1/L2 inclusion.
	// It only observes, so a checked run takes the same cycle loop and
	// produces the same statistics as an unchecked one.
	Check bool

	// Deadline bounds one run's wall-clock time; exceeding it aborts with a
	// WedgeError (ReasonDeadline). Zero means no deadline.
	Deadline time.Duration

	// Watchdog overrides the no-retirement-progress window in cycles. Zero
	// selects the default (2M cycles).
	Watchdog uint64

	// Faults configures deterministic fault injection; nil injects nothing.
	Faults *faults.Config

	// The sampling interval is unexported on purpose: confhash walks
	// exported fields only, so observation settings must never leak into
	// the configuration identity. Use EnableSampling.
	sampleEvery uint64
}

// EnableSampling turns on the cycle-interval sampler for chips built from
// this configuration: every `every` cycles the chip snapshots interval IPC,
// memory traffic and every registered occupancy gauge into a ring of
// metrics.DefaultSeriesCap points. Sampling never changes simulated timing
// or counters.
func (c *Config) EnableSampling(every uint64) { c.sampleEvery = every }

// Sampling reports the sampling interval in cycles (0 = off).
func (c *Config) Sampling() uint64 { return c.sampleEvery }

// Chip is one assembled machine.
type Chip struct {
	Cfg *Config

	// Stats is the chip's counter set and Reg its occupancy gauges; every
	// component counts into the one and registers with the other at
	// construction. They are separate allocations: a caller that keeps
	// only the Stats after the run keeps no component alive.
	Reg   *metrics.Registry
	Stats *stats.Stats

	z  *zbox.Zbox
	l2 *l2.L2
	vb *vbox.VBox
	c  *core.Core

	chk *check.Checker   // nil unless Cfg.Check
	inj *faults.Injector // nil unless Cfg.Faults

	now uint64 // global cycle, shared across phases

	// Cycle-interval sampler state (nil series = sampling off).
	series       *metrics.Series
	gaugeScratch []int
	lastRetired  uint64 // at the previous sample point
	lastRawBytes uint64

	// simWall accumulates wall-clock time spent inside the chip loop
	// (bound + drain, all phases) — the denominator of the simulator's
	// cycles-per-second throughput. Trace construction, functional
	// verification and harness overhead are excluded on purpose: the
	// number tracks the chip loop, not the workload's setup cost.
	simWall time.Duration
}

// SimWall returns the cumulative wall-clock time this chip has spent inside
// its cycle loop, across every phase run so far.
func (ch *Chip) SimWall() time.Duration { return ch.simWall }

// Clock returns the chip's current cycle — total simulated time including
// post-HALT drain, across every phase run so far.
func (ch *Chip) Clock() uint64 { return ch.now }

// New assembles a chip from cfg. Every component counts into one fresh
// Stats block and registers its gauges with one fresh registry.
func New(cfg *Config) *Chip {
	st, reg := new(stats.Stats), new(metrics.Registry)
	inj := faults.New(cfg.Faults)
	// The injector rides into each component on a local copy of its config,
	// so the caller's Config literal stays untouched (tables share them
	// across cells).
	zc := cfg.Zbox
	zc.Faults = inj
	z := zbox.New(zc, st, reg)
	l2cfg := cfg.L2
	l2cfg.Faults = inj
	l2c := l2.New(l2cfg, st, reg, z)
	var vb *vbox.VBox
	var vu core.VectorUnit
	if cfg.HasVbox {
		vc := cfg.Vbox
		vc.Faults = inj
		vb = vbox.New(vc, st, reg, l2c)
		vu = vb
	}
	cc := cfg.Core
	cc.Faults = inj
	c := core.New(cc, st, reg, l2c, vu)
	if vb != nil {
		vb.OnDone = c.VectorDone
	}
	ch := &Chip{Cfg: cfg, Reg: reg, Stats: st, z: z, l2: l2c, vb: vb, c: c, inj: inj}
	if cfg.Check {
		ch.chk = check.New()
		c.SetChecker(ch.chk)
	}
	if cfg.sampleEvery > 0 {
		ch.series = metrics.NewSeries(cfg.sampleEvery, metrics.DefaultSeriesCap, reg.GaugeNames())
	}
	return ch
}

// Series returns the sampled series, or nil when sampling was never enabled.
func (ch *Chip) Series() *metrics.SeriesDump {
	if ch.series == nil {
		return nil
	}
	return ch.series.Dump()
}

// watchdogWindow is how many cycles of zero progress trip the deadlock
// detector.
const watchdogWindow = 2_000_000

// drainBudget bounds the post-HALT drain in cycles.
const drainBudget = 10_000_000

// deadlineCheckMask throttles the wall-clock and trace-health polls to one
// every 4096 cycles; time.Now on every cycle would dominate the simulator's
// own work.
const deadlineCheckMask = 4095

// anyBusy reports whether any component still has in-flight background work
// (the post-HALT drain condition).
func (ch *Chip) anyBusy() bool {
	return ch.z.Busy() || ch.l2.Busy() || ch.c.Busy() || (ch.vb != nil && ch.vb.Busy())
}

// tick advances every component to cycle cy in the fixed order
// z → l2 → vbox → core. A tick may synchronously hand work to a component
// later in the order (a Zbox completion delivers an L2 fill, a Vbox
// completion calls the core's VectorDone), which that component sees in the
// same cycle; work handed to an earlier component lands in the next cycle.
func (ch *Chip) tick(cy uint64) {
	ch.z.Tick(cy)
	ch.l2.Tick(cy)
	if ch.vb != nil {
		ch.vb.Tick(cy)
	}
	ch.c.Tick(cy)
}

// runBound is the chip loop: it ticks every component once per cycle until
// every thread halts, then drains background traffic. trs are the bound
// traces, polled for producer-side errors so a kernel that dies mid-trace
// (and will therefore never emit HALT) is reported once its records are
// consumed rather than after a full watchdog window, and cut at the
// deadline. The sampler and the checker observe the same loop; neither
// changes which cycles run.
func (ch *Chip) runBound(trs []*vasm.Trace) error {
	start := ch.now
	lastProgress := ch.now
	// The watchdog baseline is the retired count as it stands at phase
	// start, so the first tick of a later phase (the ROI after a Setup, or a
	// reused chip) counts as progress only if something retires in it.
	lastRetired := ch.Stats.ScalarIns + ch.Stats.VectorIns
	wd := ch.Cfg.Watchdog
	if wd == 0 {
		wd = watchdogWindow
	}
	var deadline time.Time
	if ch.Cfg.Deadline > 0 {
		deadline = time.Now().Add(ch.Cfg.Deadline)
		// The polls run between ticks, but a kernel that stops calling the
		// Builder leaves the core blocked inside Next. At the deadline the
		// timer releases Next, so the next poll reports the deadline.
		cut := time.AfterFunc(ch.Cfg.Deadline, func() { cutTraces(trs) })
		defer cut.Stop()
	}
	iter := uint64(0)
	for !ch.c.Halted() {
		ch.now++
		cy := ch.now
		ch.tick(cy)
		ch.sample()

		if retired := ch.Stats.ScalarIns + ch.Stats.VectorIns; retired != lastRetired {
			lastRetired = retired
			lastProgress = cy
		} else if cy-lastProgress > wd {
			return ch.wedge(ReasonWatchdog, wd)
		}

		if ch.chk.Violated() {
			return ch.wedge(ReasonInvariant, wd)
		}

		if iter&deadlineCheckMask == 0 {
			if err := ch.checkHealth(trs, deadline, wd); err != nil {
				return err
			}
		}
		iter++
	}
	// Timing stops when HALT retires, like a STREAM timer. Phase cycles are
	// accumulated so an ROI phase reports only its own duration.
	ch.Stats.Cycles += ch.now - start
	// Let outstanding background work (write buffers, prefetches) drain so
	// the traffic accounting is complete and the next phase starts with a
	// quiescent machine.
	haltCy := ch.now
	for ch.now-haltCy < drainBudget && ch.anyBusy() {
		ch.now++
		ch.tick(ch.now)
		if iter&deadlineCheckMask == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return ch.deadlineWedge(trs, wd)
		}
		iter++
	}
	return nil
}

// cutTraces releases every trace's consumer and producer (vasm.Trace.Cut).
func cutTraces(trs []*vasm.Trace) {
	for _, tr := range trs {
		tr.Cut()
	}
}

// deadlineWedge reports a blown deadline. It cuts the traces first, so
// their Close does not wait for a producer that may have stalled.
func (ch *Chip) deadlineWedge(trs []*vasm.Trace, wd uint64) *WedgeError {
	cutTraces(trs)
	return ch.wedge(ReasonDeadline, wd)
}

// checkHealth is the periodic (every-4096-cycles) poll for conditions the
// cycle loop itself cannot see: a blown wall-clock deadline and a trace
// whose producer died (which would otherwise spin until the watchdog). A
// dead trace is reported only once the core has drained it, so the cycle
// and retired count depend on its records alone, not on host timing.
func (ch *Chip) checkHealth(trs []*vasm.Trace, deadline time.Time, wd uint64) error {
	if !deadline.IsZero() && time.Now().After(deadline) {
		return ch.deadlineWedge(trs, wd)
	}
	for _, tr := range trs {
		if !tr.Drained() {
			continue
		}
		if err := tr.Err(); err != nil {
			w := ch.wedge(ReasonTrace, wd)
			w.Cause = err
			return w
		}
	}
	return nil
}

// sample pushes one cycle-interval point into the series ring when the
// sampler is armed and the clock sits on a sample boundary. IPC and RawBytes
// are interval quantities (since the previous boundary); gauges are read
// through the registry, in registration order.
func (ch *Chip) sample() {
	if ch.series == nil || ch.now%ch.series.Every() != 0 {
		return
	}
	every := ch.series.Every()
	retired := ch.Stats.ScalarIns + ch.Stats.VectorIns
	raw := ch.Stats.RawMemBytes()
	ch.gaugeScratch = ch.Reg.ReadGaugeValues(ch.now, ch.gaugeScratch)
	ch.series.Add(metrics.Point{
		Cycle:    ch.now,
		Retired:  retired,
		IPC:      float64(retired-ch.lastRetired) / float64(every),
		RawBytes: raw - ch.lastRawBytes,
		Gauges:   ch.gaugeScratch,
	})
	ch.lastRetired = retired
	ch.lastRawBytes = raw
}
