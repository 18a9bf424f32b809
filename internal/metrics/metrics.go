// Package metrics is the chip's observation layer over time. Every
// component (core, vbox, l2, zbox) registers its occupancy gauges under a
// namespaced name ("l2.maf", "core.rob") against one per-chip Registry at
// construction time. The registry drives the cycle-interval sampler
// (Series) that feeds tartables -json, the tarserved /metrics endpoint and
// the Chrome trace-event export, and it renders the occupancy snapshot of
// every wedge report.
//
// The chip's event counters are not here: they are the fields of its one
// stats.Stats block, which the components increment in place.
package metrics

import "fmt"

// Gauge is a registered occupancy probe: a named closure the registry can
// read at any simulated cycle (some occupancies — busy ports — are a
// function of the current cycle, so Read takes it).
type Gauge struct {
	Name string
	Read func(cy uint64) int
}

// GaugeSample is one gauge's value at a point in time.
type GaugeSample struct {
	Name  string `json:"name"`
	Value int    `json:"value"`
}

// Registry is one chip's set of occupancy gauges. The zero value is empty
// and ready to use; hand one to every component constructor and read it
// from the run harness.
type Registry struct {
	gauges []Gauge
}

// RegisterGauge adds an occupancy probe under a namespaced
// "<component>.<gauge>" name. Registration order is preserved in every
// snapshot and export.
func (r *Registry) RegisterGauge(name string, read func(cy uint64) int) {
	for _, g := range r.gauges {
		if g.Name == name {
			panic(fmt.Sprintf("metrics: gauge %q registered twice", name))
		}
	}
	r.gauges = append(r.gauges, Gauge{Name: name, Read: read})
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
