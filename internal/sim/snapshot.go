package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// SaveState encodes the full chip state — memory image, architectural
// registers, metric counters and every timing component's durable state —
// at a quiescent cycle boundary: all threads halted, no in-flight uops,
// fills, slices or wheel events anywhere on the chip. Mid-flight state
// holds completion closures and uop pointer graphs that cannot be
// serialized, so snapshots are only defined at phase boundaries (the
// post-Setup warm-up boundary being the canonical one); a busy chip is an
// error, never a silent partial save.
//
// The blob is deterministic for a given chip state: map-backed structures
// are emitted in sorted key order and all absolute-cycle reservations are
// delta-encoded against the snapshot cycle, so two chips in the same state
// at different absolute clocks produce byte-identical payloads after the
// leading cycle word.
//
// Fault campaigns consume per-operation injector state that a restored
// chip cannot replay, so snapshots refuse chips with faults armed.
func (ch *Chip) SaveState(m *arch.Machine) ([]byte, error) {
	if ch.inj != nil {
		return nil, fmt.Errorf("sim: snapshots do not compose with fault campaigns (injector position is not serializable)")
	}
	if !ch.c.Halted() {
		return nil, fmt.Errorf("sim: core not halted; snapshots require a quiescent chip")
	}
	if ch.anyBusy() {
		return nil, fmt.Errorf("sim: background work in flight; snapshots require a quiescent chip")
	}
	w := snapshot.NewWriter()
	w.Tag("chip")
	w.U64(ch.now)
	w.Bool(ch.vb != nil)
	m.Mem.SaveState(w)
	m.SaveState(w)
	ch.Stats.SaveState(w)
	if err := ch.c.SaveState(w, ch.now); err != nil {
		return nil, err
	}
	if err := ch.l2.SaveState(w, ch.now); err != nil {
		return nil, err
	}
	if err := ch.z.SaveState(w, ch.now); err != nil {
		return nil, err
	}
	if ch.vb != nil {
		if err := ch.vb.SaveState(w, ch.now); err != nil {
			return nil, err
		}
	}
	return w.Finish(), nil
}

// RestoreChip rebuilds a chip and its architectural machine from a blob
// produced by SaveState, for the same configuration. The chip is
// constructed fresh via New (so all wiring — registry, injector-free
// component graph, OnDone callbacks — is identical to a straight run) and
// component state is loaded over it; the clock resumes at the snapshot
// cycle. Running the same kernel on the restored chip is bit-identical to
// running Setup then the kernel on a fresh chip (the A/B tests enforce
// this).
//
// Geometry mismatches between the blob and cfg (cache shape, port/lane
// counts, counter-set skew) are reported as snapshot.ErrCorrupt; envelope
// damage and schema skew surface from the reader as snapshot.ErrCorrupt /
// snapshot.ErrSchema. cfg must not arm fault campaigns (see SaveState).
func RestoreChip(cfg *Config, blob []byte) (*Chip, *arch.Machine, error) {
	if cfg.Faults != nil {
		return nil, nil, fmt.Errorf("sim: snapshots do not compose with fault campaigns (injector position is not serializable)")
	}
	r, err := snapshot.NewReader(blob)
	if err != nil {
		return nil, nil, err
	}
	r.Tag("chip")
	now := r.U64()
	hasVbox := r.Bool()
	if r.Err() != nil {
		return nil, nil, r.Err()
	}
	if hasVbox != cfg.HasVbox {
		return nil, nil, fmt.Errorf("%w: snapshot vbox presence %v, config has %v", snapshot.ErrCorrupt, hasVbox, cfg.HasVbox)
	}
	ch := New(cfg)
	m := arch.New(mem.New())
	if err := m.Mem.LoadState(r); err != nil {
		return nil, nil, err
	}
	if err := m.LoadState(r); err != nil {
		return nil, nil, err
	}
	if err := ch.Stats.LoadState(r); err != nil {
		return nil, nil, err
	}
	if err := ch.c.LoadState(r, now); err != nil {
		return nil, nil, err
	}
	if err := ch.l2.LoadState(r, now); err != nil {
		return nil, nil, err
	}
	if err := ch.z.LoadState(r, now); err != nil {
		return nil, nil, err
	}
	if ch.vb != nil {
		if err := ch.vb.LoadState(r, now); err != nil {
			return nil, nil, err
		}
	}
	if err := r.Close(); err != nil {
		return nil, nil, err
	}
	ch.now = now
	// Seed the sampler's interval baselines from the restored counters so a
	// sampled resume reports interval (not since-boot) IPC and bytes at its
	// first point, matching a straight run sampled across the boundary.
	ch.lastRetired = ch.Stats.ScalarIns + ch.Stats.VectorIns
	ch.lastRawBytes = ch.Stats.RawMemBytes()
	return ch, m, nil
}
