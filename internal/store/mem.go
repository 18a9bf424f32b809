package store

import (
	"container/list"
	"sync"
)

// Mem is the in-memory tier: per-namespace least-recently-used maps under
// the bounds the namespace asks for — an entry bound for results, a byte
// bound for snapshots (full memory images, so an entry bound would let a
// handful of large blobs dominate the heap).
// Standing alone it is the everything-dies-with-the-process store tarserved
// launches with; under a Tiered store it becomes the read cache in front of
// the disk tier.
type Mem struct {
	mu sync.Mutex
	ns map[Namespace]*memNS
}

type memNS struct {
	pol     Policy
	order   *list.List // front = most recent; values are *memEntry
	entries map[string]*list.Element
	bytes   int64
	evicted uint64
}

type memEntry struct {
	key  string
	blob []byte
}

// NewMem builds the memory tier from the per-namespace policies.
func NewMem(cfg Config) *Mem {
	m := &Mem{ns: make(map[Namespace]*memNS, len(cfg))}
	for ns, pol := range cfg {
		m.ns[ns] = &memNS{pol: pol, order: list.New(), entries: make(map[string]*list.Element)}
	}
	return m
}

func (m *Mem) space(ns Namespace) *memNS {
	s, ok := m.ns[ns]
	if !ok {
		// Unconfigured namespace: retain nothing rather than grow unbounded.
		return nil
	}
	return s
}

// Get returns the stored bytes, refreshing their recency.
func (m *Mem) Get(ns Namespace, key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.space(ns)
	if s == nil {
		return nil, false
	}
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*memEntry).blob, true
}

// Put inserts (or replaces) an entry, evicting past the namespace bounds.
// A single blob larger than a byte bound is not retained at all.
func (m *Mem) Put(ns Namespace, key string, blob []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.space(ns)
	if s == nil {
		return
	}
	if s.pol.MemBytes > 0 && int64(len(blob)) > s.pol.MemBytes {
		return
	}
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*memEntry)
		s.bytes += int64(len(blob)) - int64(len(e.blob))
		e.blob = blob
		s.order.MoveToFront(el)
		s.evictLocked()
		return
	}
	s.entries[key] = s.order.PushFront(&memEntry{key: key, blob: blob})
	s.bytes += int64(len(blob))
	s.evictLocked()
}

func (s *memNS) evictLocked() {
	for (s.pol.MemEntries > 0 && s.order.Len() > s.pol.MemEntries) ||
		(s.pol.MemBytes > 0 && s.bytes > s.pol.MemBytes) {
		oldest := s.order.Back()
		if oldest == nil {
			return
		}
		e := oldest.Value.(*memEntry)
		s.order.Remove(oldest)
		delete(s.entries, e.key)
		s.bytes -= int64(len(e.blob))
		s.evicted++
	}
}

// Status reports the memory-only store health.
func (m *Mem) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{Tier: "mem", NS: make(map[Namespace]NSStatus, len(m.ns))}
	for ns, s := range m.ns {
		st.NS[ns] = NSStatus{MemEntries: s.order.Len(), MemBytes: s.bytes, MemEvicted: s.evicted}
	}
	return st
}

// Close is a no-op: the memory tier has nothing to release.
func (m *Mem) Close() error { return nil }

var _ Interface = (*Mem)(nil)
