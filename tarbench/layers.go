package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vasm"
	"repro/internal/workloads"
)

// cell is one JobResult artifact, from a tartables -json document or the
// job API: the fields the benchmark reads, plus its canonical bytes.
type cell struct {
	Key       string            `json:"key"`
	Bench     string            `json:"bench"`
	Config    string            `json:"config"`
	SimCycles uint64            `json:"sim_cycles"`
	SimWallNs int64             `json:"sim_wall_ns"`
	Stats     map[string]uint64 `json:"stats"`
	Err       string            `json:"error"`
	// canon is the artifact re-encoded without the host-dependent
	// sim_wall_ns and mcps: the basis of the statistics fingerprint.
	canon []byte
}

func decodeCell(raw []byte) (*cell, error) {
	var c cell
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	delete(fields, "sim_wall_ns")
	delete(fields, "mcps")
	canon, err := json.Marshal(fields)
	if err != nil {
		return nil, err
	}
	c.canon = canon
	return &c, nil
}

// fingerprint hashes the canonical artifacts of cells in key order, so
// runs that simulated the same experiments identically print one value.
func fingerprint(cells []*cell) string {
	sorted := append([]*cell(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	h := sha256.New()
	for _, c := range sorted {
		h.Write(c.canon)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// layerTotals accumulates a traced run's per-layer quantities: profile
// self time by module, event counts from the simulations' statistics, and
// standalone trace-generation time.
type layerTotals struct {
	self     map[string]float64
	profileS float64
	// Sums over the simulations the run executed.
	retired, slices, l2Accesses, vecOps, txns, cycles, loopS float64
	loopMs                                                   []float64
	// outsideLoopS is paper-sweep wall time spent outside the chip loop.
	outsideLoopS     float64
	traceS, traceIns float64
}

func (l *layerTotals) addSim(c *cell) {
	s := c.Stats
	l.retired += float64(s["ScalarIns"] + s["VectorIns"])
	l.slices += float64(s["CRSlices"] + s["ReorderSlices"])
	l.l2Accesses += float64(s["L2Hits"] + s["L2Misses"])
	l.vecOps += float64(s["VecOps"])
	l.txns += float64(s["MemReads"] + s["MemWrites"] + s["MemDirOps"])
	l.cycles += float64(c.SimCycles)
	l.loopS += float64(c.SimWallNs) / 1e9
	l.loopMs = append(l.loopMs, float64(c.SimWallNs)/1e6)
}

func (l *layerTotals) addProfile(path string) error {
	p, err := readProfile(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	b, err := attribute(p)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if l.self == nil {
		l.self = map[string]float64{}
	}
	for k, v := range b {
		l.self[k] += v
	}
	l.profileS += float64(p.totalNs) / 1e9
	return nil
}

// kernelRef names one kernel a workload runs: a benchmark's vector or
// scalar code.
type kernelRef struct {
	bench  string
	vector bool
}

// kernelsOf lists the distinct kernels behind cells, in first-seen order.
func kernelsOf(cells []*cell) ([]kernelRef, error) {
	seen := map[kernelRef]bool{}
	var refs []kernelRef
	for _, c := range cells {
		// Swept points carry their knobs after a slash ("T/lanes=8"), the
		// Figure 9 cells a "-nopump" suffix; the base machine decides the kernel.
		base, _, _ := strings.Cut(c.Config, "/")
		cfg := sim.ByName(strings.TrimSuffix(base, "-nopump"))
		if cfg == nil {
			return nil, fmt.Errorf("%s: unknown machine %q", c.Bench, c.Config)
		}
		r := kernelRef{c.Bench, cfg.HasVbox}
		if !seen[r] {
			seen[r] = true
			refs = append(refs, r)
		}
	}
	return refs, nil
}

// drain times trace generation alone: each kernel, warm-up first, through
// vasm.NewTrace and Trace.Next on a fresh functional machine, with no
// timing model consuming the instructions.
func (l *layerTotals) drain(refs []kernelRef) error {
	for _, r := range refs {
		b, err := workloads.Get(r.bench)
		if err != nil {
			return err
		}
		var kernels []vasm.Kernel
		if b.Setup != nil {
			kernels = append(kernels, b.Setup(workloads.Test, r.vector))
		}
		if r.vector {
			kernels = append(kernels, b.Vector(workloads.Test))
		} else {
			kernels = append(kernels, b.Scalar(workloads.Test))
		}
		m := arch.New(mem.New())
		start := time.Now()
		for _, k := range kernels {
			tr := vasm.NewTrace(m, k)
			for tr.Next() != nil {
				l.traceIns++
			}
			err := tr.Err()
			tr.Close()
			if err != nil {
				return fmt.Errorf("tracing %s: %w", r.bench, err)
			}
		}
		l.traceS += time.Since(start).Seconds()
	}
	return nil
}

// metrics returns the per-layer metrics these totals define.
func (l *layerTotals) metrics() map[string]float64 {
	m := map[string]float64{"profile.total_s": l.profileS}
	for _, b := range buckets {
		m[b+".self_s"] = l.self[b]
	}
	nsPer := func(module string, count float64) float64 { return per(1e9*l.self[module], count) }
	m["core.retired"] = l.retired
	m["core.ns_per_ins"] = nsPer("core", l.retired)
	m["creorder.slices"] = l.slices
	m["creorder.ns_per_slice"] = nsPer("creorder", l.slices)
	m["l2.accesses"] = l.l2Accesses
	m["l2.ns_per_access"] = nsPer("l2", l.l2Accesses)
	m["vbox.vec_ops"] = l.vecOps
	m["vbox.ns_per_op"] = nsPer("vbox", l.vecOps)
	m["zbox.txns"] = l.txns
	m["zbox.ns_per_txn"] = nsPer("zbox", l.txns)
	m["sim.cycles"] = l.cycles
	m["sim.loop_s"] = l.loopS
	m["sim.mcps"] = per(l.cycles, l.loopS) / 1e6
	m["sim.loop_ms_p50"] = percentile(l.loopMs, 0.5)
	m["sched.ns_per_cycle"] = nsPer("sched", l.cycles)
	m["vasm.trace_s"] = l.traceS
	m["vasm.ns_per_ins"] = per(1e9*l.traceS, l.traceIns)
	m["sweep.outside_loop_s"] = l.outsideLoopS
	return m
}
