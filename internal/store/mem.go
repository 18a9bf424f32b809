package store

import (
	"container/list"
	"sync"
)

// Mem is the in-memory tier: a least-recently-used map under an entry
// bound. Standing alone it is the everything-dies-with-the-process store
// tarserved launches with; under a Tiered store it becomes the read cache
// in front of the disk tier.
type Mem struct {
	max int

	mu      sync.Mutex
	order   *list.List // front = most recent; values are *memEntry
	entries map[string]*list.Element
}

type memEntry struct {
	key  string
	blob []byte
}

// NewMem builds the memory tier under cfg.MemEntries.
func NewMem(cfg Config) *Mem {
	return &Mem{max: cfg.MemEntries, order: list.New(), entries: make(map[string]*list.Element)}
}

// Get returns the stored bytes, refreshing their recency.
func (m *Mem) Get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return nil, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memEntry).blob, true
}

// Put inserts (or replaces) an entry, evicting the least recently used
// past the bound.
func (m *Mem) Put(key string, blob []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		el.Value.(*memEntry).blob = blob
		m.order.MoveToFront(el)
		return
	}
	m.entries[key] = m.order.PushFront(&memEntry{key: key, blob: blob})
	for m.max > 0 && m.order.Len() > m.max {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.entries, oldest.Value.(*memEntry).key)
	}
}

// Status reports the memory-only store health.
func (m *Mem) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Status{Tier: "mem", MemEntries: m.order.Len()}
}

// Close is a no-op: the memory tier has nothing to release.
func (m *Mem) Close() error { return nil }

var _ Interface = (*Mem)(nil)
