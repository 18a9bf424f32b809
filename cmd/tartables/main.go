// Command tartables regenerates the paper's tables and figures on the
// simulated machines.
//
// Usage:
//
//	tartables -all                 # everything (Table 1,3,4; Figures 6-9)
//	tartables -table 4             # one table
//	tartables -fig 7 -scale bench  # one figure at a given input scale
//
// Scales: test (seconds), bench (default, tens of seconds to minutes),
// full (minutes to tens of minutes). See EXPERIMENTS.md for the recorded
// bench-scale outputs and the paper comparison.
//
// Integrity flags: -check runs every cell under the invariant checker,
// -deadline bounds each cell's wall-clock time (wedged cells become error
// rows), and -faults N arms a seeded stall-storm campaign against a
// deterministic quarter of the cells to exercise that isolation.
//
// -json replaces the text rendering with one deterministic JSON document:
// the requested tables/figures as row arrays plus every underlying
// (benchmark, machine) cell in the same result encoding the tarserved API
// returns, stamped with its confhash content key — so a CLI artifact and a
// server response for the same experiment are byte-comparable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/faults"
	"repro/internal/floorplan"
	"repro/internal/serve"
	"repro/internal/tables"
	"repro/internal/workloads"
)

// jsonReport is the -json document. Field order here fixes the artifact's
// byte layout; encoding/json never reorders struct fields.
type jsonReport struct {
	Scale  string             `json:"scale"`
	Table1 string             `json:"table1,omitempty"`
	Table2 []tables.Table2Row `json:"table2,omitempty"`
	Table3 string             `json:"table3,omitempty"`
	Table4 []tables.Table4Row `json:"table4,omitempty"`
	Fig5   string             `json:"fig5,omitempty"`
	Fig6   []tables.Fig6Row   `json:"fig6,omitempty"`
	Fig7   []tables.Fig7Row   `json:"fig7,omitempty"`
	Fig8   []tables.Fig8Row   `json:"fig8,omitempty"`
	Fig9   []tables.Fig9Row   `json:"fig9,omitempty"`
	Cells  []*serve.JobResult `json:"cells,omitempty"`
}

func main() {
	scaleFlag := flag.String("scale", "bench", "input scale: test, bench or full")
	table := flag.Int("table", 0, "regenerate one table (1, 2, 3 or 4)")
	fig := flag.Int("fig", 0, "regenerate one figure (5, 6, 7, 8 or 9)")
	all := flag.Bool("all", false, "regenerate everything")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max simulations to run concurrently (1 = sequential)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	checkFlag := flag.Bool("check", false, "run every cell under the invariant checker (ROB order, store queue, L1/L2 inclusion)")
	deadline := flag.Duration("deadline", 0, "wall-clock budget per cell (0 = none), e.g. 90s")
	faultSeed := flag.Int64("faults", 0, "seed for the stall-storm fault campaign (0 = off)")
	watchdog := flag.Uint64("watchdog", 0, "cycles without retirement before a cell is declared wedged (0 = default)")
	jsonOut := flag.Bool("json", false, "emit one deterministic JSON document instead of text")
	sample := flag.Uint64("sample", 0, "sample IPC/bandwidth/occupancy every N cycles; the series rides along in each -json cell (0 = off)")
	sampleCap := flag.Int("sample-cap", 0, "max retained sample points per cell (0 = default)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			check(err)
			defer f.Close()
			runtime.GC()
			check(pprof.Lookup("allocs").WriteTo(f, 0))
		}()
	}

	scale, err := workloads.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	r := tables.NewRunner(scale)
	r.Parallel = *parallel
	var rep *jsonReport
	if *jsonOut {
		rep = &jsonReport{Scale: scale.String()}
		r.Quiet = true
	}
	r.Check = *checkFlag
	r.Deadline = *deadline
	r.Watchdog = *watchdog
	r.SampleEvery = *sample
	r.SampleCap = *sampleCap
	if *faultSeed != 0 {
		r.Faults = faults.Storm(*faultSeed, 0)
	}
	if *all {
		// Schedule the whole sweep up front so the worker pool stays full
		// across table/figure boundaries.
		r.Prewarm()
	}

	if *all || *table == 1 {
		if rep != nil {
			rep.Table1 = tables.Table1()
		} else {
			section("Table 1: power and area estimates")
			fmt.Println(tables.Table1())
		}
	}
	if *all || *table == 2 {
		if rep == nil {
			section("Table 2: benchmarks and measured vectorisation")
		}
		rows, err := r.Table2()
		check(err)
		if rep != nil {
			rep.Table2 = rows
		} else {
			fmt.Println(tables.FormatTable2(rows))
		}
	}
	if *all || *table == 3 {
		if rep != nil {
			rep.Table3 = tables.Table3()
		} else {
			section("Table 3: machine configurations")
			fmt.Println(tables.Table3())
		}
	}
	if *all || *table == 4 {
		if rep == nil {
			section("Table 4: sustained memory bandwidth (MB/s)")
		}
		rows, err := r.Table4()
		check(err)
		if rep != nil {
			rep.Table4 = rows
		} else {
			fmt.Println(tables.FormatTable4(rows))
		}
	}
	if *all || *fig == 5 {
		if rep != nil {
			rep.Fig5 = floorplan.Compute().Render()
		} else {
			section("Figure 5: Tarantula floorplan")
			fmt.Println(floorplan.Compute().Render())
		}
	}
	if *all || *fig == 6 {
		if rep == nil {
			section("Figure 6: sustained operations per cycle on Tarantula")
		}
		rows, err := r.Fig6()
		check(err)
		if rep != nil {
			rep.Fig6 = rows
		} else {
			fmt.Println(tables.FormatFig6(rows))
		}
	}
	if *all || *fig == 7 {
		if rep == nil {
			section("Figure 7: speedup of EV8+ and Tarantula over EV8")
		}
		rows, err := r.Fig7()
		check(err)
		if rep != nil {
			rep.Fig7 = rows
		} else {
			fmt.Println(tables.FormatFig7(rows))
		}
	}
	if *all || *fig == 8 {
		if rep == nil {
			section("Figure 8: performance scaling with frequency (T4, T10)")
		}
		rows, err := r.Fig8()
		check(err)
		if rep != nil {
			rep.Fig8 = rows
		} else {
			fmt.Println(tables.FormatFig8(rows))
		}
	}
	if *all || *fig == 9 {
		if rep == nil {
			section("Figure 9: slowdown with stride-1 double-bandwidth disabled")
		}
		rows, err := r.Fig9()
		check(err)
		if rep != nil {
			rep.Fig9 = rows
		} else {
			fmt.Println(tables.FormatFig9(rows))
		}
	}
	if !*all && *table == 0 && *fig == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if rep != nil {
		// Every memoised cell rides along in the server's result encoding,
		// keyed by content address, so a CLI artifact and an API response
		// for the same experiment compare byte-for-byte.
		for _, c := range r.Cells() {
			if c.Err != "" {
				rep.Cells = append(rep.Cells, &serve.JobResult{
					Schema: serve.SchemaVersion,
					Key:    c.Key, Bench: c.Bench, Config: c.Config, Scale: scale.String(), Err: c.Err,
				})
				continue
			}
			rep.Cells = append(rep.Cells, serve.EncodeResult(c.Key, c.Res))
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		check(err)
		fmt.Println(string(out))
	}
}

func section(title string) {
	fmt.Println()
	fmt.Println("=== " + title + " ===")
	fmt.Println()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tartables:", err)
		os.Exit(1)
	}
}
