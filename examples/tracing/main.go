// Tracing: run one benchmark with the cycle-interval sampler armed and
// export the series as Chrome trace-event JSON. Open the output in
// chrome://tracing or https://ui.perfetto.dev — IPC, memory bandwidth and
// per-component occupancy (zbox/l2/vbox/core) appear as counter tracks
// over simulated time.
//
//	go run ./examples/tracing            # writes dgemm_T.trace.json
//	go run ./examples/tracing fft EV8    # any benchmark/config pair
package main

import (
	"fmt"
	"os"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	bench, config := "dgemm", "T"
	if len(os.Args) > 2 {
		bench, config = os.Args[1], os.Args[2]
	}
	b, err := workloads.Get(bench)
	check(err)
	base := sim.ByName(config)
	if base == nil {
		check(fmt.Errorf("unknown config %q (have %v)", config, sim.Names()))
	}

	// Sampling is an unexported knob outside the config's content
	// identity: arm it on a copy, and the run's counters stay
	// bit-identical to an unsampled run.
	cfg := *base
	cfg.EnableSampling(500)
	res, err := b.Run(&cfg, workloads.Test)
	check(err)

	name := fmt.Sprintf("%s_%s.trace.json", bench, config)
	f, err := os.Create(name)
	check(err)
	defer f.Close()
	check(metrics.WriteChromeTrace(f, fmt.Sprintf("%s on %s", bench, config), cfg.CPUGHz, res.Series))

	fmt.Printf("%s on %s: %d cycles, %d sample points (every %d cycles)\n",
		bench, config, res.Stats.Cycles, len(res.Series.Points), res.Series.Every)
	fmt.Printf("wrote %s — open it in chrome://tracing or https://ui.perfetto.dev\n", name)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracing:", err)
		os.Exit(1)
	}
}
