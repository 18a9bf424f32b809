package mem

import (
	"fmt"
	"sort"

	"repro/internal/snapshot"
)

// SaveState encodes the memory image: the lazily allocated frames in sorted
// frame-id order plus the high-water mark. Frame order is canonicalised so
// the same memory contents always produce the same bytes regardless of map
// iteration or allocation history.
func (m *Memory) SaveState(w *snapshot.Writer) {
	w.Tag("mem")
	w.U64(m.size)
	ids := make([]uint64, 0, len(m.frames))
	for id := range m.frames {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.U64(uint64(len(ids)))
	for _, id := range ids {
		w.U64(id)
		w.Bytes(m.frames[id])
	}
}

// LoadState replaces the memory image with the encoded one.
func (m *Memory) LoadState(r *snapshot.Reader) error {
	r.Tag("mem")
	m.size = r.U64()
	n := r.Len(8)
	m.frames = make(map[uint64][]byte, n)
	m.last = nil
	for i := 0; i < n; i++ {
		id := r.U64()
		f := r.Bytes()
		if r.Err() != nil {
			return r.Err()
		}
		if len(f) != FrameSize {
			return fmt.Errorf("%w: frame %d has %d bytes, want %d", snapshot.ErrCorrupt, id, len(f), FrameSize)
		}
		if _, dup := m.frames[id]; dup {
			return fmt.Errorf("%w: duplicate frame %d", snapshot.ErrCorrupt, id)
		}
		m.frames[id] = f
	}
	return r.Err()
}
