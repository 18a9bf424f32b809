package store

import (
	"hash/fnv"
	"sync"
)

// Tiered layers the memory tier over the disk tier:
// gets read through (memory first, disk on miss, promoting hits), puts
// write through to both. Per-key shard locks serialize a disk load against
// a concurrent completion of the same content key, so an artifact finishing
// during a warm-start load can neither be dropped nor written twice (disk
// puts are idempotent by content address).
type Tiered struct {
	mem  *Mem
	disk *Disk

	// shards are per-key mutexes (hash-sharded): held across the slow path
	// (disk read + memory promote) and across Put, never across the pure
	// memory fast path.
	shards [64]sync.Mutex

	mu       sync.Mutex
	warmHits map[Namespace]uint64
}

// NewTiered composes the memory tier over the disk tier.
func NewTiered(mem *Mem, disk *Disk) *Tiered {
	return &Tiered{mem: mem, disk: disk, warmHits: make(map[Namespace]uint64)}
}

func (t *Tiered) shard(key string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &t.shards[h.Sum32()%uint32(len(t.shards))]
}

func (t *Tiered) Get(ns Namespace, key string) ([]byte, bool) {
	if blob, ok := t.mem.Get(ns, key); ok {
		return blob, true
	}
	lock := t.shard(key)
	lock.Lock()
	defer lock.Unlock()
	// Re-check under the key lock: a Put may have landed between the fast
	// path and here, and its (identical, content-addressed) bytes must not
	// be raced by a stale disk load.
	if blob, ok := t.mem.Get(ns, key); ok {
		return blob, true
	}
	blob, ok := t.disk.Get(ns, key)
	if !ok {
		return nil, false
	}
	t.mem.Put(ns, key, blob)
	t.mu.Lock()
	t.warmHits[ns]++
	t.mu.Unlock()
	return blob, true
}

func (t *Tiered) Put(ns Namespace, key string, blob []byte) {
	lock := t.shard(key)
	lock.Lock()
	defer lock.Unlock()
	t.mem.Put(ns, key, blob)
	t.disk.Put(ns, key, blob)
}

func (t *Tiered) Status() Status {
	st := t.disk.Status()
	st.Tier = "mem+" + st.Tier
	mem := t.mem.Status()
	t.mu.Lock()
	for ns, s := range st.NS {
		ms := mem.NS[ns]
		s.MemEntries = ms.MemEntries
		s.MemBytes = ms.MemBytes
		s.MemEvicted = ms.MemEvicted
		s.WarmHits = t.warmHits[ns]
		st.NS[ns] = s
	}
	t.mu.Unlock()
	return st
}

func (t *Tiered) Close() error { return t.disk.Close() }

var _ Interface = (*Tiered)(nil)
