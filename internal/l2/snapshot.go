package l2

import (
	"fmt"

	"repro/internal/snapshot"
)

// SaveState encodes the cache's durable state at a quiescent boundary: the
// geometry, then per tag-store chunk a presence flag followed, for a present
// chunk only, by its ways (valid/dirty/P-bit/LRU each), then the LRU clock
// and the two bus-free cycles (delta-encoded against the snapshot cycle). A
// chunk no install has reached holds only invalid ways and costs one byte.
// In-flight machinery — slice queues, the retry queue, pending fills, the
// event wheel — holds callbacks and is required to be empty; Busy() is the
// caller's precondition and the wheel re-checks it here.
func (c *L2) SaveState(w *snapshot.Writer, now uint64) error {
	if c.Busy() {
		return fmt.Errorf("l2: busy (queues or fills outstanding); snapshots require a quiescent chip")
	}
	w.Tag("l2")
	w.U64(uint64(len(c.ways) * c.chunkWays()))
	w.U64(c.assoc)
	w.U64(uint64(c.chunkWays()))
	for _, chunk := range c.ways {
		w.Bool(chunk != nil)
		for i := range chunk {
			wy := &chunk[i]
			w.U64(wy.tag)
			w.Bool(wy.valid)
			w.Bool(wy.dirty)
			w.Bool(wy.pbit)
			w.Bool(wy.locked)
			w.U64(wy.lru)
		}
	}
	w.U64(c.lruClock)
	w.Delta(c.readBusFree, now)
	w.Delta(c.writeBusFree, now)
	return c.wheel.SaveState(w, now)
}

// LoadState restores the tag store onto an already-constructed (and
// geometry-matching) cache, allocating exactly the chunks the blob marks
// present. The mirrored tag arrays are rebuilt from the way records rather
// than trusted from the blob. The section is decoded into fresh tables that
// replace the cache's only once all of it has been read, so a damaged blob
// leaves the cache as it was.
func (c *L2) LoadState(r *snapshot.Reader, now uint64) error {
	r.Tag("l2")
	nways := r.U64()
	assoc := r.U64()
	chunkWays := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if nways != uint64(len(c.ways)*c.chunkWays()) || assoc != c.assoc || chunkWays != uint64(c.chunkWays()) {
		return fmt.Errorf("%w: L2 geometry %d ways/assoc %d/%d per chunk, chip has %d/%d/%d", snapshot.ErrCorrupt,
			nways, assoc, chunkWays, len(c.ways)*c.chunkWays(), c.assoc, c.chunkWays())
	}
	ways := make([][]way, len(c.ways))
	tags := make([][]uint64, len(c.tags))
	for k := range ways {
		if !r.Bool() {
			if r.Err() != nil {
				return r.Err()
			}
			continue
		}
		ways[k], tags[k] = c.newChunk()
		for i := range ways[k] {
			wy := &ways[k][i]
			wy.tag = r.U64()
			wy.valid = r.Bool()
			wy.dirty = r.Bool()
			wy.pbit = r.Bool()
			wy.locked = r.Bool()
			wy.lru = r.U64()
			if wy.valid {
				tags[k][i] = wy.tag
			}
		}
		if r.Err() != nil {
			return r.Err()
		}
	}
	lruClock := r.U64()
	readBusFree := r.Abs(now)
	writeBusFree := r.Abs(now)
	if err := c.wheel.LoadState(r, now); err != nil {
		return err
	}
	c.ways, c.tags = ways, tags
	c.lruClock = lruClock
	c.readBusFree, c.writeBusFree = readBusFree, writeBusFree
	return nil
}
