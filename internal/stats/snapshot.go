package stats

import (
	"fmt"
	"reflect"

	"repro/internal/snapshot"
)

// SaveState encodes the counter section of a chip snapshot: the tag
// "metrics", the number of counters, then every counter in field
// declaration order.
func (s *Stats) SaveState(w *snapshot.Writer) {
	w.Tag("metrics")
	sv := reflect.ValueOf(s).Elem()
	w.U64(uint64(sv.NumField()))
	for i := 0; i < sv.NumField(); i++ {
		w.U64(sv.Field(i).Uint())
	}
}

// LoadState restores the counters SaveState wrote. A section whose count
// differs from this build's field count is snapshot.ErrCorrupt.
func (s *Stats) LoadState(r *snapshot.Reader) error {
	r.Tag("metrics")
	n := r.Len(8)
	if r.Err() != nil {
		return r.Err()
	}
	sv := reflect.ValueOf(s).Elem()
	if n != sv.NumField() {
		return fmt.Errorf("%w: blob has %d counters, this build defines %d", snapshot.ErrCorrupt, n, sv.NumField())
	}
	for i := 0; i < n; i++ {
		sv.Field(i).SetUint(r.U64())
	}
	return r.Err()
}
