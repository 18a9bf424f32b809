package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setupRepeats is how many times paper-sweep measures its set-up: a
// process start takes milliseconds, and the median of a few moves by ±15%.
const setupRepeats = 60

type errRow struct {
	Err string `json:"error"`
}

// sweepDoc is the part of a tartables -json document the benchmark reads.
type sweepDoc struct {
	Table2 []struct {
		VectPct      float64 `json:"vect_pct"`
		PaperVectPct float64 `json:"paper_vect_pct"`
		Err          string  `json:"error"`
	} `json:"table2"`
	Table4 []struct {
		StreamsMBs   float64 `json:"streams_mbs"`
		RawMBs       float64 `json:"raw_mbs"`
		PaperStreams float64 `json:"paper_streams"`
		PaperRaw     float64 `json:"paper_raw"`
		Err          string  `json:"error"`
	} `json:"table4"`
	Fig6  []errRow          `json:"fig6"`
	Fig7  []errRow          `json:"fig7"`
	Fig8  []errRow          `json:"fig8"`
	Fig9  []errRow          `json:"fig9"`
	Cells []json.RawMessage `json:"cells"`
}

// errorRows counts the document's failed table and figure rows.
func (d *sweepDoc) errorRows() int {
	n := 0
	for _, r := range d.Table2 {
		if r.Err != "" {
			n++
		}
	}
	for _, r := range d.Table4 {
		if r.Err != "" {
			n++
		}
	}
	for _, rows := range [][]errRow{d.Fig6, d.Fig7, d.Fig8, d.Fig9} {
		for _, r := range rows {
			if r.Err != "" {
				n++
			}
		}
	}
	return n
}

// paperErrPct is the mean of |model − paper| ÷ paper, in percent, over
// every paper column the document carries: Table 4 Streams and Raw MB/s
// and Table 2 Vect. %. Cells the paper leaves empty (0) are skipped.
func (d *sweepDoc) paperErrPct() float64 {
	total, n := 0.0, 0
	add := func(model, paper float64) {
		if paper != 0 {
			total += math.Abs(model-paper) / paper
			n++
		}
	}
	for _, r := range d.Table4 {
		add(r.StreamsMBs, r.PaperStreams)
		add(r.RawMBs, r.PaperRaw)
	}
	for _, r := range d.Table2 {
		add(r.VectPct, r.PaperVectPct)
	}
	return 100 * per(total, float64(n))
}

// tartables runs the binary with args (which must include -json) and
// returns its document, its cells, its wall time and its peak RSS in MB.
func tartables(e *env, args ...string) (*sweepDoc, []*cell, time.Duration, float64, error) {
	cmd := command(filepath.Join(e.bin, "tartables"), args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("tartables %s: %w", strings.Join(args, " "), err)
	}
	var doc sweepDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("tartables %s: %w", strings.Join(args, " "), err)
	}
	cells := make([]*cell, len(doc.Cells))
	for i, raw := range doc.Cells {
		if cells[i], err = decodeCell(raw); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	return &doc, cells, wall, maxRSSMB(cmd.ProcessState), nil
}

// paperSweep runs the paper's whole evaluation back to back. A job is one
// sweep, the unit a user of tartables waits for.
func paperSweep(e *env) (*outcome, error) {
	o := &outcome{}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		cmd := command(filepath.Join(e.bin, "tartables"), "-table", "3")
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("tartables -table 3: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	var (
		walls, rss []float64
		lt         layerTotals
		first      *sweepDoc
		cells0     []*cell
	)
	begin, last := time.Now(), time.Duration(0)
	for i := 0; e.another(begin, i, last); i++ {
		args := []string{"-all", "-scale", "test", "-parallel", "1", "-json"}
		prof := filepath.Join(e.work, fmt.Sprintf("sweep-%d.pprof", i))
		if e.traced() {
			args = append(args, "-cpuprofile", prof)
		}
		start := time.Now()
		doc, cells, wall, mb, err := tartables(e, args...)
		if err != nil {
			return nil, err
		}
		e.spans.add("tartables.sweep", fmt.Sprintf("sweep-%d", i), "", 0, start, start.Add(wall))
		walls, rss, last = append(walls, wall.Seconds()), append(rss, mb), time.Since(start)
		o.attempted += len(cells)
		for _, c := range cells {
			if c.Err != "" {
				o.fail("%s on %s: %s", c.Bench, c.Config, c.Err)
			}
		}
		if n := doc.errorRows(); n > 0 {
			o.fail("sweep %d: %d error rows", i, n)
		}
		if fp := fingerprint(cells); i == 0 {
			first, cells0, o.fingerprint = doc, cells, fp
		} else if fp != o.fingerprint {
			o.fail("sweep %d statistics fingerprint %s differs from sweep 0's %s", i, fp, o.fingerprint)
		}
		loop := 0.0
		for _, c := range cells {
			lt.addSim(c)
			loop += float64(c.SimWallNs) / 1e9
		}
		lt.outsideLoopS += wall.Seconds() - loop
		if e.traced() {
			if err := lt.addProfile(prof); err != nil {
				return nil, err
			}
		}
	}
	o.e2e = map[string]float64{
		"setup_s":       median(setups),
		"wall_s":        median(walls),
		"jobs_per_s":    1 / median(walls),
		"job_p50_ms":    1e3 * median(walls),
		"job_p95_ms":    1e3 * percentile(walls, 0.95),
		"job_p99_ms":    1e3 * percentile(walls, 0.99),
		"peak_rss_mb":   median(rss),
		"paper_err_pct": first.paperErrPct(),
	}
	if e.traced() {
		refs, err := kernelsOf(cells0)
		if err != nil {
			return nil, err
		}
		if err := lt.drain(refs); err != nil {
			return nil, err
		}
		o.layers = lt.metrics()
	}
	o.mix = map[string]any{
		"seed":    e.seed,
		"command": "tartables -all -scale test -parallel 1 -json",
		"sweeps":  len(walls),
		"cells":   len(cells0),
		"note":    "the sweep is the paper's fixed evaluation; the seed does not change it",
	}
	return o, nil
}
