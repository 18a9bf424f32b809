package store

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
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

	warmHits atomic.Uint64
}

// NewTiered composes the memory tier over the disk tier.
func NewTiered(mem *Mem, disk *Disk) *Tiered {
	return &Tiered{mem: mem, disk: disk}
}

func (t *Tiered) shard(key string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &t.shards[h.Sum32()%uint32(len(t.shards))]
}

func (t *Tiered) Get(key string) ([]byte, bool) {
	if blob, ok := t.mem.Get(key); ok {
		return blob, true
	}
	lock := t.shard(key)
	lock.Lock()
	defer lock.Unlock()
	// Re-check under the key lock: a Put may have landed between the fast
	// path and here, and its (identical, content-addressed) bytes must not
	// be raced by a stale disk load.
	if blob, ok := t.mem.Get(key); ok {
		return blob, true
	}
	blob, ok := t.disk.Get(key)
	if !ok {
		return nil, false
	}
	t.mem.Put(key, blob)
	t.warmHits.Add(1)
	return blob, true
}

func (t *Tiered) Put(key string, blob []byte) {
	lock := t.shard(key)
	lock.Lock()
	defer lock.Unlock()
	t.mem.Put(key, blob)
	t.disk.Put(key, blob)
}

func (t *Tiered) Status() Status {
	st := t.disk.Status()
	st.Tier = "mem+" + st.Tier
	st.MemEntries = t.mem.Status().MemEntries
	st.WarmHits = t.warmHits.Load()
	return st
}

func (t *Tiered) Close() error { return t.disk.Close() }

var _ Interface = (*Tiered)(nil)
