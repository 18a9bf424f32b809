package metrics

import (
	"fmt"
	"reflect"

	"repro/internal/snapshot"
)

// SaveState encodes every counter's value in counterDefs order — the same
// declaration-order walk NewRegistry validates against stats.Stats, so the
// layout is stable, complete (the registry construction panics if a uint64
// field has no def) and independent of map iteration. Gauges are live reads
// over component state, not storage, and are not serialized.
func (r *Registry) SaveState(w *snapshot.Writer) {
	w.Tag("metrics")
	sv := reflect.ValueOf(&r.compat).Elem()
	w.U64(uint64(len(counterDefs)))
	for _, d := range counterDefs {
		w.U64(sv.FieldByName(d.Field).Uint())
	}
}

// LoadState restores the counter values.
func (r *Registry) LoadState(rd *snapshot.Reader) error {
	rd.Tag("metrics")
	n := rd.Len(8)
	if rd.Err() != nil {
		return rd.Err()
	}
	if n != len(counterDefs) {
		return fmt.Errorf("%w: blob has %d counters, this build defines %d", snapshot.ErrCorrupt, n, len(counterDefs))
	}
	sv := reflect.ValueOf(&r.compat).Elem()
	for _, d := range counterDefs {
		sv.FieldByName(d.Field).SetUint(rd.U64())
	}
	return rd.Err()
}
