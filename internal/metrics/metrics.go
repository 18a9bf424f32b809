// Package metrics is the chip's typed, hierarchical metrics layer. Every
// component (core, vbox, l2, zbox, mem, sim) registers its counters and
// occupancy gauges under a namespaced metric name ("l2.vec_slices",
// "mem.row_hits", "core.rob_occupancy") against one per-chip Registry at
// construction time.
//
// The design is two-faced on purpose:
//
//   - The hot path is untyped and free: a Counter handle is a plain *uint64
//     (the value slot), so an increment is one machine add — no map lookups,
//     no interfaces, no allocations (BenchmarkRegistryOverhead holds this at
//     zero allocs/op).
//
//   - The cold path is fully typed: the registry can enumerate every metric
//     with its namespaced name, render occupancy snapshots, and drive the
//     cycle-interval sampler (Series) that feeds tartables -json, the
//     tarserved /metrics endpoint and the Chrome trace-event export.
//
// Counter storage is a stats.Stats block the registry allocates on its own:
// the legacy flat struct survives as a live compat view (Registry.Stats),
// which keeps ROI deltas (stats.Sub), the evaluation tables and the
// byte-comparable serve encoding bit-identical to the pre-registry
// simulator. The block is a separate allocation, not a field of the
// Registry, because run results keep the *stats.Stats long after the run:
// a pointer into the Registry would keep the Registry alive, its gauge
// closures with it, and through them every component of the chip.
// Registering a counter requires a backing stats.Stats field; the registry
// panics at construction if the def table and the struct ever drift, and a
// reflect-based test holds stats.Sub to the same coverage — a new metric can
// never be silently dropped from ROI deltas.
package metrics

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/stats"
)

// Def describes one registered counter: the namespaced metric name, the
// stats.Stats field that backs it (the compat view), and help text for
// exposition formats.
type Def struct {
	Name  string // namespaced: "<component>.<metric>"
	Field string // backing stats.Stats field
	Help  string
}

// counterDefs is the canonical namespace: every counter the chip model can
// register, in exposition order. NewRegistry verifies the table covers every
// uint64 field of stats.Stats exactly once, so the compat view and the
// registry can never disagree about what exists.
var counterDefs = []Def{
	{"sim.cycles", "Cycles", "Simulated cycles inside timed regions."},
	{"core.flops", "Flops", "Floating-point operations retired (element granularity)."},
	{"core.mem_ops", "MemOps", "Memory operations retired (element granularity)."},
	{"core.other_ops", "OtherOps", "Integer/scalar/control operations retired."},
	{"core.scalar_ins", "ScalarIns", "Scalar instructions retired."},
	{"core.vector_ins", "VectorIns", "Vector instructions retired."},
	{"core.vec_ops", "VecOps", "Element operations retired by vector instructions."},
	{"core.l1_hits", "L1Hits", "L1 data cache hits."},
	{"core.l1_misses", "L1Misses", "L1 data cache misses."},
	{"l2.hits", "L2Hits", "L2 hits (slice or scalar granularity)."},
	{"l2.misses", "L2Misses", "L2 misses."},
	{"l2.scalar_reqs", "L2ScalarReqs", "Scalar requests presented to the L2."},
	{"l2.vec_slices", "L2VecSlices", "Vector slices accepted by the L2."},
	{"l2.pump_slices", "L2PumpSlices", "Slices served in stride-1 double-bandwidth mode."},
	{"l2.slice_replays", "L2SliceReplays", "Slices replayed after a conflict."},
	{"l2.panic_events", "L2PanicEvents", "Panic-mode events (MAF pressure relief)."},
	{"l2.pbit_invalidates", "L2PBitInvalidates", "P-bit L1 invalidations issued."},
	{"l2.writebacks", "L2Writebacks", "Dirty lines written back to memory."},
	{"l2.maf_peak", "MAFPeak", "Peak miss-address-file occupancy (max-style)."},
	{"l2.maf_full_stalls", "MAFFullStalls", "Requests stalled on a full MAF."},
	{"vbox.cr_rounds", "CRRounds", "Conflict-resolution rounds."},
	{"vbox.cr_slices", "CRSlices", "Slices processed by conflict resolution."},
	{"vbox.reorder_slices", "ReorderSlices", "Slices reordered before issue."},
	{"vbox.addr_gen_cycles", "AddrGenCycles", "Address-generator busy cycles."},
	{"vbox.tlb_misses", "TLBMisses", "Vector TLB misses."},
	{"vbox.tlb_refills", "TLBRefills", "Vector TLB refills via PALcode."},
	{"core.drain_ms", "DrainMs", "DrainM barriers executed."},
	{"core.branch_mispredicts", "BranchMispredicts", "Branch mispredictions."},
	{"core.branches", "Branches", "Conditional branches retired."},
	{"vbox.vs_bus_transfers", "VSBusTransfers", "Scalar-operand bus transfers to the Vbox."},
	{"zbox.reads", "MemReads", "Memory-controller read transactions (64 B)."},
	{"zbox.writes", "MemWrites", "Memory-controller write transactions (64 B)."},
	{"zbox.dir_ops", "MemDirOps", "Directory-only transactions (64 B)."},
	{"zbox.row_activates", "RowActivates", "DRAM row activations."},
	{"zbox.row_hits", "RowHits", "Accesses hitting an open DRAM row."},
	{"zbox.turnarounds", "Turnarounds", "Read/write bus turnarounds."},
	{"sim.useful_bytes", "UsefulBytes", "Useful bytes moved (STREAMS convention)."},
}

// Defs returns the canonical counter namespace in exposition order.
func Defs() []Def { return append([]Def(nil), counterDefs...) }

// CounterNames returns every registered counter name, sorted.
func CounterNames() []string {
	names := make([]string, len(counterDefs))
	for i, d := range counterDefs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

// Counter is a zero-overhead handle to one registered counter: a pointer to
// the value slot in the registry's compat block. Incrementing is one plain
// add.
type Counter struct{ v *uint64 }

// Inc adds one.
func (c Counter) Inc() { *c.v++ }

// Add adds n.
func (c Counter) Add(n uint64) { *c.v += n }

// Peak raises the counter to n when larger — max-style metrics such as
// l2.maf_peak.
func (c Counter) Peak(n uint64) {
	if n > *c.v {
		*c.v = n
	}
}

// Value reads the counter.
func (c Counter) Value() uint64 { return *c.v }

// Gauge is a registered occupancy probe: a named closure the registry can
// read at any simulated cycle (some occupancies — busy ports — are a
// function of the current cycle, so Read takes it).
type Gauge struct {
	Name string
	Help string
	Read func(cy uint64) int
}

// GaugeSample is one gauge's value at a point in time.
type GaugeSample struct {
	Name  string `json:"name"`
	Value int    `json:"value"`
}

// Registry is one chip's metric namespace. Construct with NewRegistry; hand
// one to every component constructor; read it from the run harness.
type Registry struct {
	compat *stats.Stats // canonical counter storage, allocated apart (see above)

	byName   map[string]Counter
	gauges   []Gauge
	gaugeIdx map[string]int
}

// NewRegistry builds an empty registry and verifies the counter namespace
// against the compat struct: every def must resolve to a distinct uint64
// field and every uint64 field must have a def.
func NewRegistry() *Registry {
	r := &Registry{
		compat:   new(stats.Stats),
		byName:   make(map[string]Counter, len(counterDefs)),
		gaugeIdx: make(map[string]int),
	}
	sv := reflect.ValueOf(r.compat).Elem()
	covered := make(map[string]bool, len(counterDefs))
	for _, d := range counterDefs {
		f := sv.FieldByName(d.Field)
		if !f.IsValid() || f.Kind() != reflect.Uint64 {
			panic(fmt.Sprintf("metrics: def %q names no uint64 stats.Stats field %q", d.Name, d.Field))
		}
		if covered[d.Field] {
			panic(fmt.Sprintf("metrics: stats.Stats field %q registered twice", d.Field))
		}
		if _, dup := r.byName[d.Name]; dup {
			panic(fmt.Sprintf("metrics: counter %q registered twice", d.Name))
		}
		covered[d.Field] = true
		r.byName[d.Name] = Counter{v: f.Addr().Interface().(*uint64)}
	}
	t := sv.Type()
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Type.Kind() == reflect.Uint64 && !covered[t.Field(i).Name] {
			panic(fmt.Sprintf("metrics: stats.Stats field %q has no registered metric — add it to counterDefs", t.Field(i).Name))
		}
	}
	return r
}

// Counter resolves a namespaced counter handle. The map lookup happens once,
// at component construction; the returned handle is lookup-free.
func (r *Registry) Counter(name string) Counter {
	c, ok := r.byName[name]
	if !ok {
		panic(fmt.Sprintf("metrics: unknown counter %q (register it in counterDefs)", name))
	}
	return c
}

// Stats returns the live compat view: the flat stats.Stats struct the
// pre-registry simulator shared. Reads observe counter updates immediately,
// and direct field writes (the workload harness crediting UsefulBytes)
// remain legal. The pointer references the counter block alone, so holding
// it after the run keeps neither the registry nor the chip alive.
func (r *Registry) Stats() *stats.Stats { return r.compat }

// RegisterGauge adds an occupancy probe under a namespaced name.
// Registration order is preserved in every snapshot and export.
func (r *Registry) RegisterGauge(name, help string, read func(cy uint64) int) {
	if _, dup := r.gaugeIdx[name]; dup {
		panic(fmt.Sprintf("metrics: gauge %q registered twice", name))
	}
	r.gaugeIdx[name] = len(r.gauges)
	r.gauges = append(r.gauges, Gauge{Name: name, Help: help, Read: read})
}

// Gauges returns the registered occupancy probes in registration order.
func (r *Registry) Gauges() []Gauge { return r.gauges }

// GaugeNames returns the gauge names in registration order.
func (r *Registry) GaugeNames() []string {
	names := make([]string, len(r.gauges))
	for i, g := range r.gauges {
		names[i] = g.Name
	}
	return names
}

// ReadGauges samples every gauge at cycle cy, in registration order.
func (r *Registry) ReadGauges(cy uint64) []GaugeSample {
	out := make([]GaugeSample, len(r.gauges))
	for i, g := range r.gauges {
		out[i] = GaugeSample{Name: g.Name, Value: g.Read(cy)}
	}
	return out
}

// ReadGaugeValues samples gauge values only (no names) into dst, for the
// cycle-interval sampler: reusing dst keeps the per-sample cost flat.
func (r *Registry) ReadGaugeValues(cy uint64, dst []int) []int {
	if cap(dst) < len(r.gauges) {
		dst = make([]int, len(r.gauges))
	}
	dst = dst[:len(r.gauges)]
	for i, g := range r.gauges {
		dst[i] = g.Read(cy)
	}
	return dst
}

// Scope is a component-local view of the registry: metric names resolve
// under the component prefix, so the l2 registers "vec_slices" and gets
// "l2.vec_slices".
type Scope struct {
	r      *Registry
	prefix string
}

// Scope returns the component-local registration view for a component name
// ("core", "vbox", "l2", "mem", "sim").
func (r *Registry) Scope(component string) Scope {
	return Scope{r: r, prefix: component + "."}
}

// Counter resolves a counter handle under the scope's component prefix.
func (s Scope) Counter(name string) Counter { return s.r.Counter(s.prefix + name) }

// Gauge registers an occupancy probe under the scope's component prefix.
func (s Scope) Gauge(name, help string, read func(cy uint64) int) {
	s.r.RegisterGauge(s.prefix+name, help, read)
}
