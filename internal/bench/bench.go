// Package bench measures and records simulator throughput: simulated cycles
// per wall-clock second on the Table 4 memory-bandwidth kernels and on a
// scalar-core kernel, plus the wall clock of the full `tartables -all`
// sweep. Results are versioned rows in results/BENCH_sim.json, so the
// repository carries its own performance trajectory and CI can fail a
// change that regresses it.
//
// Hosts differ in absolute speed, so every row also records calib_ms: the
// time a fixed integer loop takes on the measuring host. A kernel's mcps ×
// calib_ms — simulated megacycles per calibration loop's worth of host time
// — is what the regression gate compares across rows, so a slower host does
// not read as a slower simulator, while a slowdown in any layer of the chip
// loop still does.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tables"
	"repro/internal/workloads"
)

// Schema is the BENCH_sim.json format version.
const Schema = 1

// Kernel names one measured benchmark and the configuration it runs on.
type Kernel struct{ Name, Config string }

// Kernels is the measured set: the Table 4 bandwidth microkernels on T, the
// memory-bound workloads whose simulation speed gates every sweep, and
// linpack100 on the EV8 scalar core, the kind of run every Fig. 7–9 speedup
// divides by and the one that dominates the sweep's wall clock.
var Kernels = []Kernel{
	{"streams_copy", "T"}, {"streams_scale", "T"}, {"streams_add", "T"}, {"streams_triadd", "T"},
	{"rndcopy", "T"}, {"rndmemscale", "T"},
	{"linpack100", "EV8"},
}

// KernelResult is one kernel's throughput measurement.
type KernelResult struct {
	Name   string `json:"name"`
	Config string `json:"config"`
	Scale  string `json:"scale"`
	// Cycles is the simulated cycle count.
	Cycles uint64 `json:"cycles"`
	// Best chip-loop wall seconds and simulated cycles per wall second.
	WallS float64 `json:"wall_s"`
	CPS   float64 `json:"cycles_per_sec"`
	MCPS  float64 `json:"mcps"`
}

// Row is one benchmark session: a labelled set of kernel measurements plus
// the full-sweep wall clock, stamped with the host environment.
type Row struct {
	Label      string `json:"label"`
	When       string `json:"when"`
	Host       string `json:"host"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// CalibMs is the host's calibration-loop time (see calibrate), absent
	// in rows from builds that predate it.
	CalibMs float64        `json:"calib_ms,omitempty"`
	Kernels []KernelResult `json:"kernels"`
	// SweepWallS is the wall clock of the tartables -all -scale <scale>
	// equivalent (sequential), the headline ROADMAP number.
	SweepWallS float64 `json:"sweep_wall_s"`
	SweepScale string  `json:"sweep_scale"`
	// WarmupReuse is the checkpoint feature's payoff measurement (absent in
	// rows from builds that predate it).
	WarmupReuse *WarmupReuse `json:"warmup_reuse,omitempty"`
}

// WarmupReuse records the warm-up snapshot payoff: a sweep over a
// post-warm-up knob on a warm-up benchmark, run once cold (every point
// simulates its own warm-up) and once forking every later point from the
// first point's post-warm-up snapshot. Both sweeps must produce
// bit-identical per-point statistics; the speedup is the host-independent
// cold/reuse sim-loop wall-clock ratio.
type WarmupReuse struct {
	Bench        string  `json:"bench"`
	Config       string  `json:"config"`
	Scale        string  `json:"scale"`
	Points       int     `json:"points"`
	WarmupCycles uint64  `json:"warmup_cycles"`
	ColdWallS    float64 `json:"cold_wall_s"`
	ReuseWallS   float64 `json:"reuse_wall_s"`
	Speedup      float64 `json:"speedup"`
}

// document is the BENCH_sim.json layout over a row type: Row to read the
// gate's baseline, json.RawMessage to append without dropping fields that
// older rows recorded and this build no longer knows.
type document[R any] struct {
	Schema int `json:"schema"`
	Rows   []R `json:"rows"`
}

// File is the whole BENCH_sim.json document.
type File = document[Row]

// Options configures a Run.
type Options struct {
	Label string
	Scale workloads.Scale
	// SkipSweep omits the full-sweep wall-clock measurement (tests).
	SkipSweep bool
	// Progress, when non-nil, receives one line per measurement step.
	Progress func(string)
}

// Run measures every kernel (and optionally the full sweep) and returns the
// finished row.
func Run(opts Options) (*Row, error) {
	host, _ := os.Hostname()
	row := &Row{
		Label:      opts.Label,
		When:       time.Now().UTC().Format(time.RFC3339),
		Host:       host,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CalibMs:    calibrate(),
		SweepScale: opts.Scale.String(),
	}
	if opts.Progress != nil {
		opts.Progress(fmt.Sprintf("calibration loop: %.2f ms", row.CalibMs))
	}
	for _, k := range Kernels {
		b, err := workloads.Get(k.Name)
		if err != nil {
			return nil, err
		}
		cfg := sim.ByName(k.Config)
		if cfg == nil {
			return nil, fmt.Errorf("%s: unknown configuration %q", k.Name, k.Config)
		}
		cycles, wall, err := timeKernel(b, cfg, opts.Scale)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", k.Name, k.Config, err)
		}
		kr := KernelResult{
			Name: k.Name, Config: cfg.Name, Scale: opts.Scale.String(),
			Cycles: cycles,
			WallS:  wall, CPS: float64(cycles) / wall, MCPS: float64(cycles) / wall / 1e6,
		}
		row.Kernels = append(row.Kernels, kr)
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("%-16s %-4s %12d cycles  %8.2f Mcps  (%.1f Mcycles per calibration loop)",
				k.Name, cfg.Name, kr.Cycles, kr.MCPS, kr.MCPS*row.CalibMs))
		}
	}
	if !opts.SkipSweep {
		if opts.Progress != nil {
			opts.Progress("full sweep (tartables -all equivalent, sequential)...")
		}
		wall, err := timeSweep(opts.Scale)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		row.SweepWallS = wall
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("sweep wall clock: %.2f s", wall))
		}
	}
	wr, err := MeasureWarmupReuse(opts.Scale)
	if err != nil {
		return nil, fmt.Errorf("warmup reuse: %w", err)
	}
	row.WarmupReuse = wr
	if opts.Progress != nil {
		opts.Progress(fmt.Sprintf("warm-up reuse (%s, %d points): cold %.3f s, forked %.3f s — %.2fx",
			wr.Bench, wr.Points, wr.ColdWallS, wr.ReuseWallS, wr.Speedup))
	}
	return row, nil
}

// warmupReuseRepeats: each sweep variant is run this many times and the best
// (minimum) total sim-loop wall clock kept, the same noise-shedding rule as
// timeKernel.
const warmupReuseRepeats = 5

// MeasureWarmupReuse times a physical-register sweep on rndcopy — the
// warm-up benchmark, over a knob the warm-up cannot observe — cold and with
// warm-up forking, and verifies the two sweeps agree point by point before
// reporting the speedup.
func MeasureWarmupReuse(s workloads.Scale) (*WarmupReuse, error) {
	b, err := workloads.Get("rndcopy")
	if err != nil {
		return nil, err
	}
	base := sim.T()
	var cfgs []*sim.Config
	for _, p := range []int{64, 96, 128} {
		cc := *base
		cc.Vbox.PhysVRegs = p
		cfgs = append(cfgs, &cc)
	}

	wr := &WarmupReuse{Bench: b.Name, Config: base.Name, Scale: s.String(), Points: len(cfgs)}
	var coldStats []stats.Stats
	for rep := 0; rep < warmupReuseRepeats; rep++ {
		var ns int64
		var st []stats.Stats
		for _, cfg := range cfgs {
			res, err := b.Run(cfg, s)
			if err != nil {
				return nil, err
			}
			ns += res.WallNs
			st = append(st, *res.Stats)
		}
		if wall := float64(ns) / 1e9; rep == 0 || wall < wr.ColdWallS {
			wr.ColdWallS = wall
		}
		coldStats = st
	}
	for rep := 0; rep < warmupReuseRepeats; rep++ {
		var ns int64
		var blob []byte
		for i, cfg := range cfgs {
			var opts workloads.RunOpts
			if i == 0 {
				opts.OnWarmupSnapshot = func(_ uint64, bb []byte) { blob = bb }
			} else {
				opts.WarmupSnapshot = blob
			}
			res, err := b.RunOpt(cfg, s, opts)
			if err != nil {
				return nil, err
			}
			ns += res.WallNs
			if *res.Stats != coldStats[i] {
				return nil, fmt.Errorf("point %d (phys_vregs=%d): forked run's statistics differ from the cold run's (bit-identity violation)",
					i, cfg.Vbox.PhysVRegs)
			}
			if i > 0 && !res.WarmupRestored {
				return nil, fmt.Errorf("point %d did not restore the warm-up snapshot", i)
			}
			wr.WarmupCycles = res.WarmupCycles
		}
		if wall := float64(ns) / 1e9; rep == 0 || wall < wr.ReuseWallS {
			wr.ReuseWallS = wall
		}
	}
	if wr.ReuseWallS <= 0 {
		wr.ReuseWallS = 1e-9
	}
	wr.Speedup = wr.ColdWallS / wr.ReuseWallS
	return wr, nil
}

// kernelRepeats bounds how many times timeKernel runs each kernel; the fastest
// repeat is kept, the standard way to shed scheduler noise from a
// deterministic workload.
const kernelRepeats = 25

// kernelMeasureFloor is the cumulative sim-loop wall clock timeKernel keeps
// measuring toward before trusting its minimum. Test-scale kernels finish in
// single-digit milliseconds, where one GC pause or a scheduler hiccup swings
// a lone sample by tens of percent; accumulating a quarter second of real
// measurement (still well under kernelRepeats at bench scale, where a single
// run exceeds the floor on its own) makes the reported minimum reproducible.
const kernelMeasureFloor = 250 * time.Millisecond

// timeKernel runs one kernel kernelRepeats times and returns (simulated
// cycles, best wall seconds). The wall clock is the chip loop's own
// (Result.WallNs), not the process wall: at test scale the kernels simulate
// only a few thousand cycles, so trace construction and functional
// verification would otherwise dominate and hide the chip loop entirely.
func timeKernel(b *workloads.Benchmark, cfg *sim.Config, s workloads.Scale) (uint64, float64, error) {
	var cycles uint64
	best := 0.0
	var accum time.Duration
	for i := 0; i < kernelRepeats; i++ {
		if i >= 3 && accum >= kernelMeasureFloor {
			break
		}
		res, err := b.Run(cfg, s)
		if err != nil {
			return 0, 0, err
		}
		accum += time.Duration(res.WallNs)
		wall := float64(res.WallNs) / 1e9
		if wall <= 0 {
			wall = 1e-9
		}
		if i == 0 {
			cycles, best = res.SimCycles, wall
		} else {
			if res.SimCycles != cycles {
				return 0, 0, fmt.Errorf("%s: nondeterministic simulated time: %d cycles then %d", b.Name, cycles, res.SimCycles)
			}
			if wall < best {
				best = wall
			}
		}
	}
	return cycles, best, nil
}

// timeSweep runs the full table/figure sweep sequentially and returns its
// wall clock. Sequential on purpose: the number tracks single-core simulator
// throughput, not the host's core count.
func timeSweep(s workloads.Scale) (float64, error) {
	r := tables.NewRunner(s)
	r.Parallel = 1
	r.Quiet = true
	t0 := time.Now()
	r.Prewarm()
	if _, err := r.Table2(); err != nil {
		return 0, err
	}
	if _, err := r.Table4(); err != nil {
		return 0, err
	}
	if _, err := r.Fig6(); err != nil {
		return 0, err
	}
	if _, err := r.Fig7(); err != nil {
		return 0, err
	}
	if _, err := r.Fig8(); err != nil {
		return 0, err
	}
	if _, err := r.Fig9(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate is the median time of five runs of a fixed integer loop, in ms:
// the host-speed yardstick recorded in every row. It is the loop the
// repository benchmark (tarbench) records for each run, so both report the
// host in the same unit.
func calibrate() float64 {
	var times []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 10_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		times = append(times, float64(time.Since(start))/1e6)
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// Load reads a BENCH_sim.json file. A missing file is an empty File, not an
// error, so the first run bootstraps the baseline.
func Load(path string) (*File, error) { return load[Row](path) }

func load[R any](path string) (*document[R], error) {
	d := &document[R]{Schema: Schema}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return d, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %d, this binary writes schema %d", path, d.Schema, Schema)
	}
	return d, nil
}

// Append adds row to the file at path (creating it if needed) and writes it
// back, indented and newline-terminated. Earlier rows are carried over
// verbatim, fields this build no longer defines included.
func Append(path string, row *Row) error {
	d, err := load[json.RawMessage](path)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(row)
	if err != nil {
		return err
	}
	d.Rows = append(d.Rows, raw)
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RegressionTolerance is the fraction of the committed figure a fresh
// measurement may lose before CheckRegression fails (the CI gate's ">20%
// regression" threshold).
const RegressionTolerance = 0.20

// CheckRegression compares a fresh row against the committed file. Each
// kernel's calibrated throughput (mcps × calib_ms) is compared with the same
// kernel on the same configuration in the last committed row that recorded
// calib_ms; without such a row, or a kernel that row lacks, the kernels pass
// (bootstrap). The warm-up reuse payoff is compared with the last committed
// row. It returns an error naming every figure that regressed by more than
// RegressionTolerance. An empty committed file passes.
func CheckRegression(committed *File, fresh *Row) error {
	if len(committed.Rows) == 0 {
		return nil
	}
	var bad []string
	if base := lastCalibrated(committed); base != nil && fresh.CalibMs > 0 {
		ref := map[Kernel]float64{}
		for _, k := range base.Kernels {
			ref[Kernel{k.Name, k.Config}] = k.MCPS * base.CalibMs
		}
		for _, k := range fresh.Kernels {
			want, ok := ref[Kernel{k.Name, k.Config}]
			if !ok || want <= 0 {
				continue
			}
			if got := k.MCPS * fresh.CalibMs; got < (1-RegressionTolerance)*want {
				bad = append(bad, fmt.Sprintf("%s on %s: %.1f Mcycles per calibration loop vs %.1f in %q (>%d%% regression)",
					k.Name, k.Config, got, want, base.Label, int(RegressionTolerance*100)))
			}
		}
	}
	base := committed.Rows[len(committed.Rows)-1]
	if fresh.WarmupReuse != nil {
		wr := fresh.WarmupReuse
		if wr.Speedup < 1 {
			bad = append(bad, fmt.Sprintf("warmup reuse: sweep with snapshot forking is slower than cold (%.2fx)", wr.Speedup))
		}
		if cw := base.WarmupReuse; cw != nil && cw.Speedup > 0 &&
			wr.Speedup < (1-RegressionTolerance)*cw.Speedup {
			bad = append(bad, fmt.Sprintf("warmup reuse: speedup %.2fx vs committed %.2fx (>%d%% regression)",
				wr.Speedup, cw.Speedup, int(RegressionTolerance*100)))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("simulator throughput regression vs the committed rows:\n  %s", joinLines(bad))
	}
	return nil
}

// lastCalibrated returns the last row of f that recorded calib_ms, or nil.
func lastCalibrated(f *File) *Row {
	for i := len(f.Rows) - 1; i >= 0; i-- {
		if f.Rows[i].CalibMs > 0 {
			return &f.Rows[i]
		}
	}
	return nil
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}
