// Package tables regenerates every table and figure of the paper's
// evaluation: Table 1 (power/area), Table 3 (configurations), Table 4
// (memory bandwidth microkernels), Figure 6 (sustained operations per
// cycle), Figure 7 (speedup over EV8), Figure 8 (frequency scaling) and
// Figure 9 (the stride-1 double-bandwidth ablation). cmd/tartables and the
// top-level benchmarks are thin wrappers around this package.
package tables

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/confhash"
	"repro/internal/faults"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Runner executes benchmarks on demand and memoises results, since Figures
// 6–9 share many (benchmark, machine) pairs. Distinct pairs run concurrently
// on a bounded worker pool; each pair runs exactly once (duplicate requests
// wait for the first), and every table/figure assembles its rows in the same
// deterministic order as a sequential run.
type Runner struct {
	Scale workloads.Scale
	// Quiet suppresses progress output.
	Quiet bool
	// Parallel caps how many simulations run concurrently. NewRunner
	// defaults it to GOMAXPROCS; set 1 to run everything sequentially on
	// the calling goroutine.
	Parallel int

	// ---- per-cell integrity knobs (zero values = no hardening) ----

	// Deadline bounds each cell's wall-clock time; a run that exceeds it is
	// reported as an error row instead of hanging the sweep.
	Deadline time.Duration
	// Check enables the invariant checker on every cell.
	Check bool
	// Watchdog overrides the per-cell no-progress window in cycles.
	Watchdog uint64
	// Faults arms deterministic fault injection on the cells the campaign
	// targets (Config.Targets); untargeted cells run fault-free and must
	// produce bit-identical results to an uninjected sweep.
	Faults *faults.Config
	// SampleEvery arms the cycle-interval sampler on every cell (0 = off):
	// results carry a metrics.SeriesDump that rides along in the -json
	// artifact. Sampling is observation-only — it lives outside the
	// confhash cell key and leaves every counter bit-identical.
	SampleEvery uint64

	mu      sync.Mutex
	results map[string]*call
	sem     chan struct{}
	semOnce sync.Once
	outMu   sync.Mutex // serialises progress lines from the workers
}

// call is a singleflight slot for one (benchmark, machine) pair: the first
// requester computes, everyone else waits on done.
type call struct {
	done          chan struct{}
	bench, config string // display identity (the key is the content hash)
	key           string
	res           *workloads.Result
	err           error
}

// NewRunner returns a memoising runner at the given scale.
func NewRunner(s workloads.Scale) *Runner {
	return &Runner{Scale: s, Parallel: runtime.GOMAXPROCS(0), results: make(map[string]*call)}
}

// CellKey is the content address of one sweep cell: the confhash over the
// benchmark, the runner's scale, and the cell's fully decorated machine
// configuration. Decorating first means a fault-targeted cell or a
// checker-enabled sweep occupies different cache lines than a plain run of
// the same machine — identical inputs dedupe, perturbed ones never alias.
func (r *Runner) CellKey(bench string, cfg *sim.Config) string {
	return confhash.Key(bench, r.Scale.String(), r.decorate(bench, cfg))
}

// lookup returns the pair's singleflight slot, creating it if needed; owner
// reports whether the caller created it (and so must execute the run).
func (r *Runner) lookup(bench string, cfg *sim.Config) (c *call, owner bool) {
	key := r.CellKey(bench, cfg)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.results[key]; ok {
		return c, false
	}
	c = &call{done: make(chan struct{}), bench: bench, config: cfg.Name, key: key}
	r.results[key] = c
	return c, true
}

// CellResult is one memoised cell, exported for artifact emission
// (tartables -json): the content key plus the display identity and the
// outcome. Err is non-empty for failed cells.
type CellResult struct {
	Key           string
	Bench, Config string
	Res           *workloads.Result
	Err           string
}

// Cells snapshots every completed cell in deterministic order (benchmark,
// then machine, then key). Cells still running are skipped, so callers
// should invoke it only after the tables/figures they requested have
// returned.
func (r *Runner) Cells() []CellResult {
	r.mu.Lock()
	calls := make([]*call, 0, len(r.results))
	for _, c := range r.results {
		calls = append(calls, c)
	}
	r.mu.Unlock()
	var out []CellResult
	for _, c := range calls {
		select {
		case <-c.done:
		default:
			continue // still in flight
		}
		cell := CellResult{Key: c.key, Bench: c.bench, Config: c.config, Res: c.res}
		if c.err != nil {
			cell.Err = c.err.Error()
		}
		out = append(out, cell)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		if out[i].Config != out[j].Config {
			return out[i].Config < out[j].Config
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// decorate applies the runner's integrity knobs to a cell's machine
// configuration. The original Config literal is never mutated (cells share
// them); a shallow copy carries the per-cell settings. Fault campaigns
// attach only to targeted cells so the rest of the sweep stays bit-exact.
func (r *Runner) decorate(bench string, cfg *sim.Config) *sim.Config {
	injected := r.Faults.Targets(bench + "@" + cfg.Name)
	if r.Deadline == 0 && !r.Check && r.Watchdog == 0 && !injected && r.SampleEvery == 0 {
		return cfg
	}
	cc := *cfg
	cc.Deadline = r.Deadline
	cc.Check = r.Check
	cc.Watchdog = r.Watchdog
	if injected {
		cc.Faults = r.Faults
	}
	if r.SampleEvery > 0 {
		cc.EnableSampling(r.SampleEvery)
	}
	return &cc
}

// runCell executes one (benchmark, machine) pair with panic isolation: a
// cell that panics (a model bug, a broken benchmark Check) yields an error
// for its own rows while the rest of the sweep completes.
func (r *Runner) runCell(b *workloads.Benchmark, bench string, cfg *sim.Config) (res *workloads.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = fmt.Errorf("%s on %s: cell panicked: %w", bench, cfg.Name, e)
			} else {
				err = fmt.Errorf("%s on %s: cell panicked: %v", bench, cfg.Name, p)
			}
		}
	}()
	return b.Run(r.decorate(bench, cfg), r.Scale)
}

// exec runs the pair and publishes the result into its slot.
func (r *Runner) exec(c *call, bench string, cfg *sim.Config) {
	defer close(c.done)
	b, err := workloads.Get(bench)
	if err != nil {
		c.err = err
		return
	}
	seq := r.Parallel <= 1
	if !r.Quiet && seq {
		fmt.Printf("  running %-14s on %-10s ...", bench, cfg.Name)
	}
	res, err := r.runCell(b, bench, cfg)
	if err != nil {
		c.err = err
		if !r.Quiet {
			r.outMu.Lock()
			if seq {
				fmt.Printf(" FAILED: %v\n", err)
			} else {
				fmt.Printf("  running %-14s on %-10s ... FAILED: %v\n", bench, cfg.Name, err)
			}
			r.outMu.Unlock()
		}
		return
	}
	if !r.Quiet {
		opc, _, _, _ := res.OPC()
		if seq {
			fmt.Printf(" %12d cycles  opc %6.2f\n", res.Stats.Cycles, opc)
		} else {
			// Concurrent runs report a whole line at completion so lines
			// never interleave mid-row (order across pairs may vary).
			r.outMu.Lock()
			fmt.Printf("  running %-14s on %-10s ... %12d cycles  opc %6.2f\n",
				bench, cfg.Name, res.Stats.Cycles, opc)
			r.outMu.Unlock()
		}
	}
	c.res = res
}

// start schedules the pair on the worker pool if it is not already running
// or memoised. A no-op in sequential mode — run computes inline there.
func (r *Runner) start(bench string, cfg *sim.Config) {
	if r.Parallel <= 1 {
		return
	}
	c, owner := r.lookup(bench, cfg)
	if !owner {
		return
	}
	r.semOnce.Do(func() { r.sem = make(chan struct{}, r.Parallel) })
	go func() {
		r.sem <- struct{}{}
		defer func() { <-r.sem }()
		r.exec(c, bench, cfg)
	}()
}

// run blocks until the pair's result is available, computing it inline when
// nothing has scheduled it yet.
func (r *Runner) run(bench string, cfg *sim.Config) (*workloads.Result, error) {
	if r.Parallel > 1 {
		r.start(bench, cfg)
	}
	c, owner := r.lookup(bench, cfg)
	if owner { // sequential mode only: start() owns the slot otherwise
		r.exec(c, bench, cfg)
	}
	<-c.done
	return c.res, c.err
}

// Prewarm schedules every (benchmark, machine) pair the full evaluation
// (tartables -all) needs, so the worker pool crosses section boundaries
// instead of draining at the end of each table. A no-op in sequential mode.
func (r *Runner) Prewarm() {
	for _, name := range table4Kernels {
		r.start(name, sim.T())
	}
	for _, name := range workloads.Names() {
		if b, _ := workloads.Get(name); b != nil && b.Class == "Extensions" {
			continue
		}
		r.start(name, sim.T())
	}
	for _, name := range workloads.Figure6Set() {
		r.start(name, sim.EV8())
		r.start(name, sim.EV8Plus())
		r.start(name, sim.T())
		r.start(name, sim.T4())
		r.start(name, sim.T10())
		r.start(name, sim.NoPump(sim.T()))
	}
}

// ---- Table 1 ----

// Table1 renders the power and area study.
func Table1() string {
	return power.Table(power.Paper2006())
}

// ---- Table 3 ----

// Table3 renders the four machine configurations (plus T10).
func Table3() string {
	cfgs := []*sim.Config{sim.EV8(), sim.EV8Plus(), sim.T(), sim.T4(), sim.T10()}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s", "Symbol")
	for _, c := range cfgs {
		fmt.Fprintf(&b, "%10s", c.Name)
	}
	fmt.Fprintln(&b)
	row := func(name string, f func(c *sim.Config) string) {
		fmt.Fprintf(&b, "%-24s", name)
		for _, c := range cfgs {
			fmt.Fprintf(&b, "%10s", f(c))
		}
		fmt.Fprintln(&b)
	}
	row("Core Speed (GHz)", func(c *sim.Config) string { return fmt.Sprintf("%.2f", c.CPUGHz) })
	row("Core Issue", func(c *sim.Config) string { return fmt.Sprint(c.Core.FetchWidth) })
	row("Vbox Issue", func(c *sim.Config) string {
		if !c.HasVbox {
			return "-"
		}
		return fmt.Sprint(c.Vbox.DispatchWidth)
	})
	row("Peak Int/FP", func(c *sim.Config) string {
		if c.HasVbox {
			return "32"
		}
		return fmt.Sprintf("%d/%d", c.Core.IntWidth, c.Core.FPWidth)
	})
	row("Peak Ld+St", func(c *sim.Config) string {
		if c.HasVbox {
			return "32+32"
		}
		return fmt.Sprintf("%d+%d", c.Core.LoadWidth, c.Core.StoreWidth)
	})
	row("L1 assoc", func(c *sim.Config) string { return fmt.Sprint(c.Core.L1Assoc) })
	row("L1 line (bytes)", func(c *sim.Config) string { return fmt.Sprint(c.Core.L1Line) })
	row("L2 size (MB)", func(c *sim.Config) string { return fmt.Sprint(c.L2.Bytes >> 20) })
	row("L2 assoc", func(c *sim.Config) string { return fmt.Sprint(c.L2.Assoc) })
	row("L2 line (bytes)", func(c *sim.Config) string { return fmt.Sprint(c.L2.LineBytes) })
	row("L2 scalar lat", func(c *sim.Config) string { return fmt.Sprint(c.L2.ScalarLat) })
	row("L2 vec stride-1 lat", func(c *sim.Config) string {
		if !c.HasVbox {
			return "-"
		}
		return fmt.Sprint(c.L2.VecLatPump)
	})
	row("L2 vec odd-stride lat", func(c *sim.Config) string {
		if !c.HasVbox {
			return "-"
		}
		return fmt.Sprint(c.L2.VecLatOdd)
	})
	row("RAMBUS ports", func(c *sim.Config) string { return fmt.Sprint(c.Zbox.Ports) })
	row("Mem cyc/line/port", func(c *sim.Config) string { return fmt.Sprint(c.Zbox.LineCycles) })
	return b.String()
}

// ---- Table 4 ----

// Table4Row is one bandwidth microkernel result.
type Table4Row struct {
	Name       string  `json:"name"`
	StreamsMBs float64 `json:"streams_mbs"`
	RawMBs     float64 `json:"raw_mbs"`
	// Paper values for the comparison column (MB/s).
	PaperStreams float64 `json:"paper_streams"`
	PaperRaw     float64 `json:"paper_raw"`
	// Err, when non-empty, marks a failed cell (wedge, deadline, panic);
	// the numeric columns are meaningless and the message carries the
	// WedgeError diagnostics.
	Err string `json:"error,omitempty"`
}

// firstErr returns the first non-nil error among errs.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// table4Kernels lists the bandwidth microkernels in presentation order.
var table4Kernels = []string{
	"streams_copy", "streams_scale", "streams_add", "streams_triadd",
	"rndcopy", "rndmemscale",
}

var table4Paper = map[string][2]float64{
	"streams_copy":   {42983, 64475},
	"streams_scale":  {41689, 62492},
	"streams_add":    {43097, 57463},
	"streams_triadd": {47970, 63960},
	"rndcopy":        {73456, 0},
	"rndmemscale":    {7512, 50106},
}

// Table4 runs the six microkernels on Tarantula and reports sustained
// bandwidth in the STREAMS convention and raw controller traffic.
func (r *Runner) Table4() ([]Table4Row, error) {
	cfg := sim.T()
	for _, name := range table4Kernels {
		r.start(name, cfg)
	}
	var rows []Table4Row
	for _, name := range table4Kernels {
		res, err := r.run(name, cfg)
		if err != nil {
			p := table4Paper[name]
			rows = append(rows, Table4Row{Name: name, PaperStreams: p[0], PaperRaw: p[1], Err: err.Error()})
			continue
		}
		b, _ := workloads.Get(name)
		res.Stats.UsefulBytes = b.UsefulBytes(r.Scale)
		p := table4Paper[name]
		rows = append(rows, Table4Row{
			Name:         name,
			StreamsMBs:   res.Stats.BandwidthMBs(cfg.CPUGHz),
			RawMBs:       res.Stats.RawBandwidthMBs(cfg.CPUGHz),
			PaperStreams: p[0],
			PaperRaw:     p[1],
		})
	}
	return rows, nil
}

// FormatTable4 renders the rows.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s   %12s %12s\n",
		"Kernel", "Streams MB/s", "Raw MB/s", "paper strm", "paper raw")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-16s ERROR: %s\n", r.Name, r.Err)
			continue
		}
		raw := fmt.Sprintf("%12.0f", r.RawMBs)
		praw := fmt.Sprintf("%12.0f", r.PaperRaw)
		if r.PaperRaw == 0 {
			praw = fmt.Sprintf("%12s", "NA")
		}
		fmt.Fprintf(&b, "%-16s %12.0f %s   %12.0f %s\n",
			r.Name, r.StreamsMBs, raw, r.PaperStreams, praw)
	}
	return b.String()
}

// ---- Figure 6 ----

// Fig6Row is one benchmark's sustained operations-per-cycle breakdown.
type Fig6Row struct {
	Name  string  `json:"name"`
	OPC   float64 `json:"opc"`
	FPC   float64 `json:"fpc"`
	MPC   float64 `json:"mpc"`
	Other float64 `json:"other"`
	Err   string  `json:"error,omitempty"` // non-empty marks a failed cell
}

// Fig6 runs every evaluation benchmark on Tarantula.
func (r *Runner) Fig6() ([]Fig6Row, error) {
	for _, name := range workloads.Figure6Set() {
		r.start(name, sim.T())
	}
	var rows []Fig6Row
	for _, name := range workloads.Figure6Set() {
		res, err := r.run(name, sim.T())
		if err != nil {
			rows = append(rows, Fig6Row{Name: name, Err: err.Error()})
			continue
		}
		opc, fpc, mpc, other := res.OPC()
		rows = append(rows, Fig6Row{Name: name, OPC: opc, FPC: fpc, MPC: mpc, Other: other})
	}
	return rows, nil
}

// FormatFig6 renders the rows plus a crude bar.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %7s %7s %7s %7s\n", "Benchmark", "OPC", "FPC", "MPC", "Other")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-12s ERROR: %s\n", r.Name, r.Err)
			continue
		}
		bar := strings.Repeat("#", int(r.OPC+0.5))
		fmt.Fprintf(&b, "%-12s %7.2f %7.2f %7.2f %7.2f  %s\n", r.Name, r.OPC, r.FPC, r.MPC, r.Other, bar)
	}
	return b.String()
}

// ---- Figure 7 ----

// Fig7Row is one benchmark's speedup over EV8.
type Fig7Row struct {
	Name    string  `json:"name"`
	EV8Plus float64 `json:"ev8plus"`         // speedup over EV8
	T       float64 `json:"t"`               // speedup over EV8
	Err     string  `json:"error,omitempty"` // non-empty marks a failed cell
}

// Fig7 runs each benchmark on EV8, EV8+ and T.
func (r *Runner) Fig7() ([]Fig7Row, error) {
	for _, name := range workloads.Figure6Set() {
		r.start(name, sim.EV8())
		r.start(name, sim.EV8Plus())
		r.start(name, sim.T())
	}
	var rows []Fig7Row
	for _, name := range workloads.Figure6Set() {
		base, errB := r.run(name, sim.EV8())
		plus, errP := r.run(name, sim.EV8Plus())
		tar, errT := r.run(name, sim.T())
		if err := firstErr(errB, errP, errT); err != nil {
			rows = append(rows, Fig7Row{Name: name, Err: err.Error()})
			continue
		}
		rows = append(rows, Fig7Row{
			Name:    name,
			EV8Plus: float64(base.Stats.Cycles) / float64(plus.Stats.Cycles),
			T:       float64(base.Stats.Cycles) / float64(tar.Stats.Cycles),
		})
	}
	return rows, nil
}

// FormatFig7 renders the rows and the mean speedups.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s\n", "Benchmark", "EV8+", "T")
	var ts, ps []float64
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-12s ERROR: %s\n", r.Name, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-12s %8.2f %8.2f  %s\n", r.Name, r.EV8Plus, r.T,
			strings.Repeat("#", int(r.T+0.5)))
		ts = append(ts, r.T)
		ps = append(ps, r.EV8Plus)
	}
	fmt.Fprintf(&b, "\ngeometric-mean speedup: EV8+ %.2fX, T %.2fX (paper: T ≈ 5X average)\n",
		stats.GMean(ps), stats.GMean(ts))
	return b.String()
}

// ---- Figure 8 ----

// Fig8Row is one benchmark's frequency-scaling behaviour.
type Fig8Row struct {
	Name string  `json:"name"`
	T4   float64 `json:"t4"`              // speedup relative to T
	T10  float64 `json:"t10"`             // speedup relative to T
	Err  string  `json:"error,omitempty"` // non-empty marks a failed cell
}

// Fig8 runs each benchmark on T, T4 and T10.
func (r *Runner) Fig8() ([]Fig8Row, error) {
	for _, name := range workloads.Figure6Set() {
		r.start(name, sim.T())
		r.start(name, sim.T4())
		r.start(name, sim.T10())
	}
	var rows []Fig8Row
	for _, name := range workloads.Figure6Set() {
		t, errT := r.run(name, sim.T())
		t4, err4 := r.run(name, sim.T4())
		t10, err10 := r.run(name, sim.T10())
		if err := firstErr(errT, err4, err10); err != nil {
			rows = append(rows, Fig8Row{Name: name, Err: err.Error()})
			continue
		}
		// Speedup in wall-clock time: cycles scale by frequency.
		wall := func(res *workloads.Result, ghz float64) float64 {
			return float64(res.Stats.Cycles) / ghz
		}
		rows = append(rows, Fig8Row{
			Name: name,
			T4:   wall(t, 2.13) / wall(t4, 4.8),
			T10:  wall(t, 2.13) / wall(t10, 10.6),
		})
	}
	return rows, nil
}

// FormatFig8 renders the rows.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s   (frequency ratios: 2.25x, 5.0x)\n", "Benchmark", "T4", "T10")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-12s ERROR: %s\n", r.Name, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-12s %8.2f %8.2f\n", r.Name, r.T4, r.T10)
	}
	return b.String()
}

// ---- Figure 9 ----

// Fig9Row is one benchmark's pump ablation.
type Fig9Row struct {
	Name     string  `json:"name"`
	Relative float64 `json:"relative"`        // performance with the pump disabled, relative to T (≤1)
	Err      string  `json:"error,omitempty"` // non-empty marks a failed cell
}

// Fig9 disables stride-1 double-bandwidth mode and reruns on T.
func (r *Runner) Fig9() ([]Fig9Row, error) {
	for _, name := range workloads.Figure6Set() {
		r.start(name, sim.T())
		r.start(name, sim.NoPump(sim.T()))
	}
	var rows []Fig9Row
	for _, name := range workloads.Figure6Set() {
		t, errT := r.run(name, sim.T())
		np, errN := r.run(name, sim.NoPump(sim.T()))
		if err := firstErr(errT, errN); err != nil {
			rows = append(rows, Fig9Row{Name: name, Err: err.Error()})
			continue
		}
		rows = append(rows, Fig9Row{
			Name:     name,
			Relative: float64(t.Stats.Cycles) / float64(np.Stats.Cycles),
		})
	}
	return rows, nil
}

// FormatFig9 renders the rows.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s\n", "Benchmark", "Rel. perf")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-12s ERROR: %s\n", r.Name, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-12s %10.2f  %s\n", r.Name, r.Relative,
			strings.Repeat("#", int(r.Relative*20+0.5)))
	}
	return b.String()
}

// ---- Table 2 ----

// Table2Row describes one benchmark with its measured vectorisation.
type Table2Row struct {
	Name         string  `json:"name"`
	Class        string  `json:"class"`
	Desc         string  `json:"desc"`
	Pref         bool    `json:"pref"`
	DrainM       bool    `json:"drainm"`
	VectPct      float64 `json:"vect_pct"` // measured on the Tarantula run
	PaperVectPct float64 `json:"paper_vect_pct"`
	Err          string  `json:"error,omitempty"` // non-empty marks a failed cell
}

// table2Paper is the "Vect. %" column of Table 2.
var table2Paper = map[string]float64{
	"streams_copy": 99.5, "streams_scale": 99.5, "streams_add": 99.5, "streams_triadd": 99.5,
	"rndcopy": 99.9, "rndmemscale": 99.9,
	"swim": 99.3, "art": 93.7, "sixtrack": 93.7,
	"dgemm": 99.0, "dtrmm": 98.9, "sparsemxv": 99.3, "fft": 98.7, "lu": 98.6,
	"linpack100": 85.5, "linpacktpp": 96.5,
	"moldyn": 99.5, "ccradix": 98.0,
}

// Table2 runs every benchmark on Tarantula and reports the measured
// vectorisation percentage next to the paper's column.
func (r *Runner) Table2() ([]Table2Row, error) {
	for _, name := range workloads.Names() {
		if b, _ := workloads.Get(name); b != nil && b.Class != "Extensions" {
			r.start(name, sim.T())
		}
	}
	var rows []Table2Row
	for _, name := range workloads.Names() {
		b, _ := workloads.Get(name)
		if b.Class == "Extensions" {
			continue
		}
		res, err := r.run(name, sim.T())
		if err != nil {
			rows = append(rows, Table2Row{
				Name: name, Class: b.Class, Desc: b.Desc,
				Pref: b.Pref, DrainM: b.DrainM,
				PaperVectPct: table2Paper[name],
				Err:          err.Error(),
			})
			continue
		}
		rows = append(rows, Table2Row{
			Name: name, Class: b.Class, Desc: b.Desc,
			Pref: b.Pref, DrainM: b.DrainM,
			VectPct:      res.Stats.VectorPct(),
			PaperVectPct: table2Paper[name],
		})
	}
	return rows, nil
}

// FormatTable2 renders the rows.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-14s %5s %7s %8s %10s\n",
		"Benchmark", "Class", "Pref?", "DrainM?", "Vect.%", "paper %")
	yn := func(v bool) string {
		if v {
			return "yes"
		}
		return ""
	}
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-14s %-14s ERROR: %s\n", r.Name, r.Class, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-14s %-14s %5s %7s %8.1f %10.1f\n",
			r.Name, r.Class, yn(r.Pref), yn(r.DrainM), r.VectPct, r.PaperVectPct)
	}
	return b.String()
}
