// Command tarsim runs one benchmark on one machine configuration and prints
// its performance counters.
//
// Usage:
//
//	tarsim -bench dgemm -config T
//	tarsim -bench rndcopy -config EV8 -scale test -v
//	tarsim -list
//
// Configurations: EV8, EV8+, T, T4, T10 (Table 3); add -nopump to disable
// stride-1 double-bandwidth mode (the Figure 9 ablation).
//
// Integrity flags: -check runs the microarchitectural invariant checker,
// -deadline bounds the run's wall-clock time, and -faults N arms the
// deterministic latency-jitter fault campaign with seed N (0 = off).
//
// Profiling flags: -sample N snapshots interval IPC, memory bandwidth and
// every registered occupancy gauge each N cycles and prints the series;
// -trace-out FILE exports the same series as a Chrome trace-event file for
// chrome://tracing or https://ui.perfetto.dev.
//
// Checkpoint flags: -ckpt-at N captures the chip state at the first
// quiescent boundary at or after cycle N (the post-warm-up drain; only
// benchmarks with a warm-up phase have one) and writes it atomically under
// -ckpt-dir as a self-describing .ckpt file. -resume FILE restores that
// state and runs the kernel from it — benchmark, configuration and scale
// come from the file, and the run's ROI statistics are bit-identical to a
// straight run's. Combine -resume with -sample/-trace-out to time-travel:
// re-simulate the post-checkpoint window with the profiler armed without
// paying for the warm-up again.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	bench := flag.String("bench", "", "benchmark name (see -list)")
	config := flag.String("config", "T", "machine: EV8, EV8+, T, T4, T10")
	scaleFlag := flag.String("scale", "bench", "input scale: test, bench or full")
	nopump := flag.Bool("nopump", false, "disable stride-1 double-bandwidth mode")
	verbose := flag.Bool("v", false, "print the full counter table")
	sample := flag.Uint64("sample", 0, "sample IPC/bandwidth/occupancy every N cycles and print the series")
	traceOut := flag.String("trace-out", "", "write the sampled series as Chrome trace-event JSON to this file")
	list := flag.Bool("list", false, "list benchmarks and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	checkFlag := flag.Bool("check", false, "run the microarchitectural invariant checker (ROB order, store queue, L1/L2 inclusion)")
	deadline := flag.Duration("deadline", 0, "wall-clock budget for the run (0 = none), e.g. 2m")
	faultSeed := flag.Int64("faults", 0, "seed for the deterministic latency-jitter fault campaign (0 = off)")
	ckptAt := flag.Uint64("ckpt-at", 0, "checkpoint the chip at the first quiescent boundary at or after this cycle (0 = off)")
	ckptDir := flag.String("ckpt-dir", "ckpt", "directory for -ckpt-at checkpoint files")
	resume := flag.String("resume", "", "resume from a checkpoint file written by -ckpt-at (bench/config/scale come from the file)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fatalIf(err)
		fatalIf(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			fatalIf(err)
			defer f.Close()
			runtime.GC()
			fatalIf(pprof.Lookup("allocs").WriteTo(f, 0))
		}()
	}

	if *list {
		for _, n := range workloads.Names() {
			b, _ := workloads.Get(n)
			fmt.Printf("%-16s %-14s %s\n", n, b.Class, b.Desc)
		}
		return
	}
	var resumeBlob []byte
	if *resume != "" {
		if *ckptAt > 0 {
			fatalIf(fmt.Errorf("-resume skips the warm-up, so there is no boundary left for -ckpt-at to capture"))
		}
		meta, blob, err := readCheckpoint(*resume)
		fatalIf(err)
		resumeBlob = blob
		// The checkpoint is self-describing; an explicitly passed identity
		// flag that contradicts it is a mistake worth refusing, not
		// silently overriding either way.
		flag.Visit(func(f *flag.Flag) {
			switch {
			case f.Name == "bench" && *bench != meta.Bench,
				f.Name == "config" && *config != meta.Config,
				f.Name == "scale" && *scaleFlag != meta.Scale,
				f.Name == "nopump" && *nopump != meta.NoPump:
				fatalIf(fmt.Errorf("-%s contradicts checkpoint %s (%s on %s, %s scale)",
					f.Name, *resume, meta.Bench, meta.Config, meta.Scale))
			}
		})
		*bench, *config, *scaleFlag, *nopump = meta.Bench, meta.Config, meta.Scale, meta.NoPump
	}
	if *bench == "" {
		flag.Usage()
		os.Exit(2)
	}
	scale, err := workloads.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := sim.ByName(*config)
	if cfg == nil {
		fmt.Fprintf(os.Stderr, "unknown config %q\n", *config)
		os.Exit(2)
	}
	if *nopump {
		cfg = sim.NoPump(cfg)
	}
	if *checkFlag || *deadline > 0 || *faultSeed != 0 {
		cc := *cfg
		cc.Check = *checkFlag
		cc.Deadline = *deadline
		if *faultSeed != 0 {
			cc.Faults = faults.Jitter(*faultSeed)
		}
		cfg = &cc
	}
	b, err := workloads.Get(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *traceOut != "" && *sample == 0 {
		*sample = 10_000 // tracing needs a sampling interval; pick a sane default
	}
	if *sample > 0 {
		// The sampler only observes: the sampled run takes the plain run's
		// path, warm-up and functional check included.
		cc := *cfg
		cc.EnableSampling(*sample)
		cfg = &cc
	}
	var opts workloads.RunOpts
	var ckptPath string
	var boundary uint64
	if *ckptAt > 0 {
		if b.Setup == nil {
			fatalIf(fmt.Errorf("%s has no warm-up phase, so no quiescent boundary to checkpoint", *bench))
		}
		opts.OnWarmupSnapshot = func(cycle uint64, blob []byte) {
			boundary = cycle
			if cycle < *ckptAt {
				return
			}
			p, err := writeCheckpoint(*ckptDir, ckptMeta{
				Bench: *bench, Config: cfg.Name, Scale: scale.String(),
				NoPump: *nopump, Cycle: cycle,
			}, blob)
			fatalIf(err)
			ckptPath = p
		}
	}
	opts.WarmupSnapshot = resumeBlob
	t0 := time.Now()
	res, err := b.RunOpt(cfg, scale, opts)
	wall := time.Since(t0).Seconds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tarsim:", err)
		os.Exit(1)
	}
	if *ckptAt > 0 && ckptPath == "" {
		fatalIf(fmt.Errorf("no quiescent boundary at or after cycle %d (warm-up drains at cycle %d); no checkpoint written", *ckptAt, boundary))
	}
	if ckptPath != "" {
		fmt.Printf("checkpoint written to %s (cycle %d)\n", ckptPath, boundary)
	}
	if res.WarmupRestored {
		if *sample > 0 {
			fmt.Printf("time-travel: resumed at cycle %d, sampling the window from there\n", res.WarmupCycles)
		} else {
			fmt.Printf("resumed from %s: %d warm-up cycles restored, not simulated\n", *resume, res.WarmupCycles)
		}
	}
	opc, fpc, mpc, other := res.OPC()
	fmt.Printf("%s on %s (%s scale)\n", *bench, cfg.Name, scale)
	fmt.Printf("cycles  %d\n", res.Stats.Cycles)
	fmt.Printf("speed   %.2f Mcps (simulated cycles per wall second, %.2fs wall)\n",
		float64(res.Stats.Cycles)/wall/1e6, wall)
	fmt.Printf("opc     %.2f  (fpc %.2f, mpc %.2f, other %.2f)\n", opc, fpc, mpc, other)
	if ub := b.UsefulBytes; ub != nil {
		res.Stats.UsefulBytes = ub(scale)
		fmt.Printf("streams bandwidth %.0f MB/s, raw %.0f MB/s\n",
			res.Stats.BandwidthMBs(cfg.CPUGHz), res.Stats.RawBandwidthMBs(cfg.CPUGHz))
	}
	if *verbose {
		fmt.Println()
		fmt.Print(res.Stats.Table())
	}
	if *sample > 0 {
		printSeries(res.Series, cfg, *sample)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fatalIf(err)
		name := fmt.Sprintf("%s on %s (%s scale)", *bench, cfg.Name, scale)
		fatalIf(metrics.WriteChromeTrace(f, name, cfg.CPUGHz, res.Series))
		fatalIf(f.Close())
		fmt.Printf("trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
}

// printSeries prints the sampled series: interval IPC, interval raw memory
// bandwidth and every registered occupancy gauge. With a resumed checkpoint
// it covers only the post-checkpoint window (time-travel).
func printSeries(d *metrics.SeriesDump, cfg *sim.Config, every uint64) {
	if d == nil {
		fatalIf(fmt.Errorf("no samples taken (run shorter than %d cycles?)", every))
	}
	fmt.Println()
	fmt.Printf("%10s %8s %10s %10s", "cycle", "ipc", "mbs_raw", "retired")
	for _, g := range d.Gauges {
		fmt.Printf(" %*s", max(len(g), 6), g)
	}
	fmt.Println()
	secsPerInterval := float64(every) / (cfg.CPUGHz * 1e9)
	for _, pt := range d.Points {
		fmt.Printf("%10d %8.3f %10.0f %10d", pt.Cycle, pt.IPC,
			float64(pt.RawBytes)/secsPerInterval/1e6, pt.Retired)
		for i, g := range d.Gauges {
			fmt.Printf(" %*d", max(len(g), 6), pt.Gauges[i])
		}
		fmt.Println()
	}
	if d.Dropped > 0 {
		fmt.Printf("(%d older points dropped: the ring keeps the newest %d; raise -sample to cover the whole run)\n", d.Dropped, len(d.Points))
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tarsim:", err)
		os.Exit(1)
	}
}
