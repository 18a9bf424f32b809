package sched

import (
	"fmt"

	"repro/internal/snapshot"
)

// SaveState encodes the wheel for a chip checkpoint. Snapshots are taken
// only at quiescent boundaries, where every wheel is empty — pending events
// hold closures, which have no serializable form — so the durable state is
// just the base cycle, delta-encoded like every other cycle field. A wheel
// with live events refuses to encode rather than silently dropping them.
func (w *Wheel) SaveState(sw *snapshot.Writer, now uint64) error {
	if w.n > 0 {
		return fmt.Errorf("sched: wheel has %d pending events; snapshots require a quiescent chip", w.n)
	}
	sw.Tag("wheel")
	sw.Delta(w.base, now)
	return nil
}

// LoadState restores an empty wheel's base cycle. Residual events on the
// destination wheel would violate the quiescence contract the encoder
// enforced, so they are rejected too.
func (w *Wheel) LoadState(r *snapshot.Reader, now uint64) error {
	if w.n > 0 {
		return fmt.Errorf("sched: restore target wheel has %d pending events", w.n)
	}
	r.Tag("wheel")
	w.base = r.Abs(now)
	return r.Err()
}
