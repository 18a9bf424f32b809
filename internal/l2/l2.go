// Package l2 models Tarantula's second-level cache (§3.4): sixteen banks
// read in parallel for vector slices, the PUMP structures that double
// stride-1 bandwidth, slice-atomic miss handling in the MAF (sleep, fill,
// wakeup, retry, panic mode), P-bit scalar↔vector coherency, and the shared
// path for scalar (EV8-side) refills and write-buffer drains.
//
// Timing is slice-granular: a conflict-free slice cycles all sixteen banks
// at once, so the model charges bank/bus occupancy per slice rather than per
// element — the granularity at which the paper's contention effects occur.
package l2

import (
	"math/bits"

	"repro/internal/creorder"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/zbox"
)

// Config sets the cache geometry and timing.
type Config struct {
	Bytes     int // total capacity
	Assoc     int
	LineBytes int // 64 throughout the paper

	ScalarLat  int // load-to-use for scalar requests (Table 3)
	VecLatPump int // load-to-use for vector stride-1 (Table 3)
	VecLatOdd  int // load-to-use for vector non-unit strides (Table 3)

	MAFSize         int // outstanding miss entries
	ReplayThreshold int // replays before panic mode (§3.4)
	RetryDelay      int // cycles between wakeup and replay

	SliceQueue int // vector input queue depth per direction

	// PBitPenalty is the extra latency a vector access pays when it must
	// send invalidates to the L1 for a P-bit line.
	PBitPenalty int

	// Faults, when non-nil, adds deterministic jitter to response latencies
	// (sim.New installs the chip's injector).
	Faults *faults.Injector
}

// SliceOp is a vector slice request walking the memory pipeline.
type SliceOp struct {
	Slice creorder.Slice
	Write bool
	// Prefetch marks a slice nothing waits for: a vector prefetch's, which
	// outlives its instruction. Its Done, if set, is called in the cycle of
	// the lookup that completes the slice, only to say the cache holds the
	// op no longer; no completion event is scheduled for it.
	Prefetch bool
	// Done is called when the slice's data transfer completes.
	Done func(cycle uint64)

	replays int
	waiting int // outstanding line fills
	panic_  bool
}

// chunkSets is the number of consecutive sets the tag store allocates at
// once: 64 sets of the paper's 8-way cache are 512 ways, 16 KiB of host
// memory with their tags.
const chunkSets = 64

type way struct {
	tag    uint64 // line address
	valid  bool
	dirty  bool
	pbit   bool
	locked bool // pinned by a panicked slice
	lru    uint64
}

// mafEntry is one miss-address-file entry: an in-flight line fetch, the
// slices sleeping on it and the scalar requests waiting for it. The L2 owns
// MAFSize entries for its whole life; a freed entry keeps its waiter
// slices' storage and its fill-arrival callback, so a line fill allocates
// nothing once the entries have been used.
type mafEntry struct {
	line     uint64
	sleepers []*SliceOp
	scalar   []scalarWaiter
	// arrived is the Zbox completion callback of the entry's line read,
	// bound once in New.
	arrived func(cycle uint64)
}

// Initial waiter capacity of a MAF entry. Across the vector Table 2
// kernels on T, over 99% of fills wake at most four slices, and almost none
// has more than one scalar waiter.
const (
	mafSleepers = 4
	mafScalar   = 2
)

// scalarWaiter is a scalar request (an L1 refill or a store drain) waiting
// for a line fill.
type scalarWaiter struct {
	write bool
	done  func(cycle uint64) // may be nil
	lat   uint64             // load-to-use latency after the fill
}

// L2 is the cache model.
type L2 struct {
	cfg Config
	z   *zbox.Zbox

	// The tag store is a table of chunks of 1<<chunkShift consecutive sets
	// (chunkSets, or every set of a smaller cache). Within chunk k, set s
	// occupies ways[k][(s mod chunk sets)*assoc:][:assoc]. A chunk is
	// allocated by the first install into it; until then ways[k] and tags[k]
	// are nil and every set in it reads as all-invalid, which is what a
	// probe of an untouched set returns anyway, so replacement order and the
	// counters do not depend on the chunking. Host memory therefore follows
	// the lines a run touches, not the 16 MB the modelled cache holds.
	//
	// tags[k] mirrors the tag of each way of chunk k, with ^0 for an invalid
	// way (never a real line address, since lines are at least 64-byte
	// aligned), so a probe scans one contiguous cache line of tags instead
	// of the 24-byte way structs.
	ways       [][]way
	tags       [][]uint64
	mask       uint64 // set-index mask
	assoc      uint64
	chunkShift uint // log2 of the sets per chunk

	st *stats.Stats

	lruClock uint64

	// OnPBitInvalidate is installed by the core: the L2 calls it when a
	// vector access touches (or an eviction removes) a line the EV8 core
	// has in its L1. It returns true when the L1 copy was dirty and had to
	// be written through first.
	OnPBitInvalidate func(lineAddr uint64) bool

	readQ, writeQ sched.Ring[*SliceOp]
	scalarQ       sched.Ring[scalarReq]
	retryQ        sched.Ring[*SliceOp]

	// retrySliceFn re-queues a slice after a retry delay; bound once so the
	// (hot) fill-completion and MAF-retry paths schedule without closures.
	// retryFillFn retries a fill's install when every way of its set is
	// pinned, and retryScalarFn re-queues a scalar request the full MAF
	// turned away.
	retrySliceFn, retryFillFn, retryScalarFn func(uint64, any)

	// missScratch backs lookupSlice's per-slice missing-line list, reused
	// across slices (it never escapes the call).
	missScratch []uint64

	// The MAF's MAFSize entries: mafFree holds the ones no fill occupies,
	// and mafIndex maps the line of each occupied entry to it.
	mafFree  []*mafEntry
	mafIndex sched.Table[mafEntry]

	readBusFree, writeBusFree uint64

	wheel *sched.Wheel
}

type scalarReq struct {
	addr  uint64
	write bool
	wh64  bool
	pref  bool
	done  func(cycle uint64)
}

// callDone invokes a stored completion callback with the fired cycle — the
// AtCall form of the old `func() { done(cy+lat) }` closures (func values are
// pointer-shaped, so storing one in the event's any costs no allocation).
func callDone(cy uint64, a any) { a.(func(uint64))(cy) }

// New returns an L2 backed by the given memory controller that counts its
// hits, misses, slices and MAF events in st and registers its queue-depth
// gauges with reg.
func New(cfg Config, st *stats.Stats, reg *metrics.Registry, z *zbox.Zbox) *L2 {
	nsets := cfg.Bytes / (cfg.LineBytes * cfg.Assoc)
	shift := uint(bits.TrailingZeros(uint(min(nsets, chunkSets))))
	nchunks := nsets >> shift
	c := &L2{
		cfg:        cfg,
		z:          z,
		ways:       make([][]way, nchunks),
		tags:       make([][]uint64, nchunks),
		mask:       uint64(nsets - 1),
		assoc:      uint64(cfg.Assoc),
		chunkShift: shift,
		st:         st,
		mafFree:    make([]*mafEntry, cfg.MAFSize),
		mafIndex:   sched.NewTable[mafEntry](cfg.MAFSize),
		wheel:      new(sched.Wheel),
	}
	// Each entry's waiter slices start with room carved from two shared
	// arrays, so a fresh L2's first fills do not grow them by appends. The
	// full slice expressions cap each entry at its own share: an entry that
	// outgrows it reallocates instead of writing into its neighbour's.
	entries := make([]mafEntry, cfg.MAFSize)
	sleepers := make([]*SliceOp, cfg.MAFSize*mafSleepers)
	scalar := make([]scalarWaiter, cfg.MAFSize*mafScalar)
	for i := range entries {
		e := &entries[i]
		e.sleepers = sleepers[i*mafSleepers : i*mafSleepers : (i+1)*mafSleepers]
		e.scalar = scalar[i*mafScalar : i*mafScalar : (i+1)*mafScalar]
		e.arrived = func(cy uint64) { c.fillArrived(cy, e) }
		c.mafFree[i] = e
	}
	c.retrySliceFn = func(_ uint64, a any) { c.retryQ.Push(a.(*SliceOp)) }
	c.retryFillFn = func(cy uint64, a any) { c.fillArrived(cy, a.(*mafEntry)) }
	c.retryScalarFn = func(_ uint64, a any) { c.scalarQ.Push(a.(scalarReq)) }
	// Vector read and write slices queued at the L2, woken slices awaiting
	// replay, and occupied miss-address-file entries.
	reg.RegisterGauge("l2.read_q", func(uint64) int { return c.readQ.Len() })
	reg.RegisterGauge("l2.write_q", func(uint64) int { return c.writeQ.Len() })
	reg.RegisterGauge("l2.retry_q", func(uint64) int { return c.retryQ.Len() })
	reg.RegisterGauge("l2.maf", func(uint64) int { return c.MAFInUse() })
	return c
}

func (c *L2) line(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }

// locate returns the chunk holding line's set and the index of the set's
// first way within that chunk.
func (c *L2) locate(line uint64) (k int, base uint64) {
	set := (line >> 6) & c.mask
	return int(set >> c.chunkShift), (set & (1<<c.chunkShift - 1)) * c.assoc
}

// chunkWays is the number of ways one chunk holds.
func (c *L2) chunkWays() int { return int(c.assoc) << c.chunkShift }

// newChunk returns the storage of one chunk with every way invalid.
func (c *L2) newChunk() ([]way, []uint64) {
	tags := make([]uint64, c.chunkWays())
	for i := range tags {
		tags[i] = ^uint64(0)
	}
	return make([]way, len(tags)), tags
}

// probe returns the way holding line, or nil.
func (c *L2) probe(line uint64) *way {
	k, base := c.locate(line)
	tags := c.tags[k]
	if tags == nil {
		return nil
	}
	for i, t := range tags[base : base+c.assoc] {
		if t == line {
			return &c.ways[k][base+uint64(i)]
		}
	}
	return nil
}

// Present reports whether line is cached, without touching LRU or P-bit
// state — the invariant checker's L1-inclusion sweep must observe the cache
// without perturbing replacement order.
func (c *L2) Present(line uint64) bool { return c.probe(line) != nil }

func (c *L2) touch(w *way) {
	c.lruClock++
	w.lru = c.lruClock
}

// markDirty transitions a line to dirty, charging the directory-update
// transaction the coherency protocol performs on the Shared→Dirty (or
// Invalid→Dirty, for WH64 allocations) edge.
func (c *L2) markDirty(w *way) {
	if !w.dirty {
		w.dirty = true
		c.z.Request(w.tag, zbox.DirOp, nil)
	}
}

// victim picks the LRU unlocked way of set, or -1 if every way is pinned by
// panicked slices.
func victim(set []way) int {
	v := -1
	for i := range set {
		w := &set[i]
		if !w.valid {
			return i
		}
		if w.locked {
			continue
		}
		if v < 0 || w.lru < set[v].lru {
			v = i
		}
	}
	return v
}

// install places line into the cache, evicting as needed, and allocates the
// set's chunk on its first install. Returns nil if no victim is available
// (all ways locked).
func (c *L2) install(line uint64, dirty bool) *way {
	k, base := c.locate(line)
	if c.tags[k] == nil {
		c.ways[k], c.tags[k] = c.newChunk()
	}
	idx := victim(c.ways[k][base : base+c.assoc])
	if idx < 0 {
		return nil
	}
	w := &c.ways[k][base+uint64(idx)]
	if w.valid {
		if w.pbit && c.OnPBitInvalidate != nil {
			// Evicting a P-bit line invalidates the L1 copy (§3.4).
			c.st.L2PBitInvalidates++
			if c.OnPBitInvalidate(w.tag) {
				w.dirty = true // L1 write-through merged into the victim
			}
		}
		if w.dirty {
			c.st.L2Writebacks++
			c.z.Request(w.tag, zbox.Write, nil)
		}
	}
	*w = way{tag: line, valid: true, dirty: dirty}
	c.tags[k][base+uint64(idx)] = line
	c.touch(w)
	if dirty {
		// Fresh dirty allocation (WH64): Invalid→Dirty directory edge.
		c.z.Request(line, zbox.DirOp, nil)
	}
	return w
}

// ---- external request API ----

// SubmitSlice offers a vector slice to the cache. It returns false when the
// input queue for that direction is full (the Vbox keeps the slice and
// retries next cycle).
func (c *L2) SubmitSlice(op *SliceOp) bool {
	q := &c.readQ
	if op.Write {
		q = &c.writeQ
	}
	if q.Len() >= c.cfg.SliceQueue {
		return false
	}
	q.Push(op)
	return true
}

// ScalarRead requests the line containing addr on behalf of the EV8 core
// (an L1 refill). The P-bit is set: the core now has the line. done fires
// when the line is available to the L1.
func (c *L2) ScalarRead(cy uint64, addr uint64, done func(cycle uint64)) {
	c.scalarQ.Push(scalarReq{addr: c.line(addr), done: done})
}

// ScalarPrefetch is a non-binding scalar prefetch: it fills the L2 (and is
// dropped on MAF pressure) but never blocks the requester.
func (c *L2) ScalarPrefetch(cy uint64, addr uint64) {
	c.scalarQ.Push(scalarReq{addr: c.line(addr), pref: true})
}

// ScalarWrite drains one store (or an L1 dirty writeback) into the cache,
// setting the P-bit, per the write-buffer behaviour of §3.4. done, if
// non-nil, fires when the write is durably in the L2 (DrainM waits on it).
func (c *L2) ScalarWrite(cy uint64, addr uint64, done func(cycle uint64)) {
	c.scalarQ.Push(scalarReq{addr: c.line(addr), write: true, done: done})
}

// WH64 allocates the line dirty without a memory read (the write-hint that
// saves read-for-ownership traffic). The allocation bypasses the L1, so the
// P-bit is not set and later vector stores do not pay invalidates.
func (c *L2) WH64(cy uint64, addr uint64, done func(cycle uint64)) {
	c.scalarQ.Push(scalarReq{addr: c.line(addr), write: true, wh64: true, done: done})
}

// Busy reports whether the cache still has work in flight.
func (c *L2) Busy() bool {
	return c.readQ.Len()+c.writeQ.Len()+c.scalarQ.Len()+c.retryQ.Len()+c.MAFInUse() > 0 ||
		c.wheel.Pending()
}

// MAFInUse returns the number of occupied miss entries.
func (c *L2) MAFInUse() int { return c.cfg.MAFSize - len(c.mafFree) }

// ---- per-cycle processing ----

// Tick advances the cache one cycle.
func (c *L2) Tick(cy uint64) {
	c.wheel.Advance(cy)

	// Replays have priority over new slices: a woken slice walks the pipe
	// again ahead of fresh traffic (it holds a MAF entry others may need).
	if c.retryQ.Len() > 0 && c.tryBus(cy, c.retryQ.Peek()) {
		c.st.L2SliceReplays++
		c.lookupSlice(cy, c.retryQ.Pop())
	}

	// Accept at most one new slice per direction per cycle, bus permitting.
	if c.readQ.Len() > 0 && c.tryBus(cy, c.readQ.Peek()) {
		c.lookupSlice(cy, c.readQ.Pop())
	}
	if c.writeQ.Len() > 0 && c.tryBus(cy, c.writeQ.Peek()) {
		c.lookupSlice(cy, c.writeQ.Pop())
	}

	// Two scalar requests per cycle (a line read + a line write stream,
	// EV8's 273 GB/s sustainable figure from Table 3).
	for n := 0; n < 2 && c.scalarQ.Len() > 0; n++ {
		c.lookupScalar(cy, c.scalarQ.Pop())
	}
}

// tryBus reserves the data bus for the slice: pump slices stream 32 qw/cycle
// for four cycles; normal slices move their ≤16 quadwords in one.
func (c *L2) tryBus(cy uint64, op *SliceOp) bool {
	occ := uint64(1)
	if op.Slice.Pump {
		occ = 4
	}
	if op.Write {
		if c.writeBusFree > cy {
			return false
		}
		c.writeBusFree = cy + occ
	} else {
		if c.readBusFree > cy {
			return false
		}
		c.readBusFree = cy + occ
	}
	return true
}

func (c *L2) lookupSlice(cy uint64, op *SliceOp) {
	c.st.L2VecSlices++
	if op.Slice.Pump {
		c.st.L2PumpSlices++
	}
	missing := c.missScratch[:0]
	pbitHit := false
	// Consecutive elements of a slice overwhelmingly share a cache line
	// (a pump slice spans two lines, any other slice one per bank), so the
	// associativity scan is memoised per line. Every per-element side effect
	// (LRU touch, P-bit handling, duplicate miss entries) still happens per
	// element, keeping the state byte-identical to the unmemoised walk.
	lastLine := ^uint64(0)
	var lastW *way
	for _, e := range op.Slice.Elems {
		line := c.line(e.Addr)
		var w *way
		if line == lastLine {
			w = lastW
		} else {
			w = c.probe(line)
			lastLine, lastW = line, w
		}
		if w == nil {
			missing = append(missing, line)
			continue
		}
		c.touch(w)
		if w.pbit {
			pbitHit = true
			c.st.L2PBitInvalidates++
			if c.OnPBitInvalidate != nil && c.OnPBitInvalidate(line) {
				w.dirty = true
			}
			w.pbit = false
		}
		if op.Write {
			c.markDirty(w)
		}
	}
	c.missScratch = missing[:0]
	if len(missing) == 0 {
		c.st.L2Hits++
		if op.panic_ {
			c.exitPanic(op)
		}
		lat := uint64(c.cfg.VecLatOdd)
		if op.Slice.Pump {
			lat = uint64(c.cfg.VecLatPump)
		}
		if pbitHit {
			lat += uint64(c.cfg.PBitPenalty)
		}
		lat += c.cfg.Faults.L2Latency(cy)
		if op.Done != nil {
			if op.Prefetch {
				op.Done(cy)
			} else {
				c.wheel.AtCall(cy+lat, callDone, op.Done)
			}
		}
		return
	}

	// Miss: the slice sleeps in the MAF with a waiting bit per missing
	// line (§3.4 "Servicing Vector Misses").
	c.st.L2Misses++
	op.replays++
	if op.replays > c.cfg.ReplayThreshold && !op.panic_ {
		c.enterPanic(op)
	}
	op.waiting = 0
	for _, line := range missing {
		if c.requestFill(line, op) != nil {
			op.waiting++
		}
	}
	if op.waiting == 0 {
		// Every fill was NACKed (MAF exhausted): retry later.
		c.st.MAFFullStalls++
		c.wheel.AtCall(cy+uint64(c.cfg.RetryDelay), c.retrySliceFn, op)
	}
}

// requestFill attaches op (nil for a scalar request) to the in-flight fetch
// of line, taking a free MAF entry and starting the fetch if there is none.
// It returns the entry, or nil when the MAF has no free entry.
func (c *L2) requestFill(line uint64, op *SliceOp) *mafEntry {
	e := c.mafIndex.Get(line)
	if e == nil {
		n := len(c.mafFree)
		if n == 0 {
			return nil
		}
		e = c.mafFree[n-1]
		c.mafFree = c.mafFree[:n-1]
		e.line = line
		c.mafIndex.Set(line, e)
		c.st.MAFPeak = max(c.st.MAFPeak, uint64(c.MAFInUse()))
		c.z.Request(line, zbox.Read, e.arrived)
	}
	if op != nil {
		e.sleepers = append(e.sleepers, op)
	}
	return e
}

// fillArrived installs the entry's line, wakes sleepers whose waiting bits
// all cleared (they move to the retry queue and walk the pipe again),
// completes the scalar waiters and frees the entry. None of the waiters
// reaches the MAF before the entry is free: woken slices replay through the
// wheel, and a scalar done callback only queues new requests.
func (c *L2) fillArrived(cy uint64, e *mafEntry) {
	w := c.install(e.line, false)
	if w == nil {
		// Every way pinned by panicked slices: retry the install shortly.
		c.wheel.AtCall(cy+1, c.retryFillFn, e)
		return
	}
	c.mafIndex.Del(e.line)
	for _, op := range e.sleepers {
		op.waiting--
		if op.waiting == 0 {
			c.wheel.AtCall(cy+uint64(c.cfg.RetryDelay), c.retrySliceFn, op)
		}
	}
	for _, sw := range e.scalar {
		if w := c.probe(e.line); w != nil {
			if sw.write {
				c.markDirty(w)
			}
			w.pbit = true
		}
		if sw.done != nil {
			sw.done(cy + sw.lat)
		}
	}
	clear(e.sleepers)
	clear(e.scalar)
	e.sleepers, e.scalar = e.sleepers[:0], e.scalar[:0]
	c.mafFree = append(c.mafFree, e)
}

// enterPanic pins the slice's lines so competing traffic cannot evict them
// (the MAF "starts NACKing all requests that may prevent forward progress",
// §3.4 — we model the effect: guaranteed completion on the next replay).
func (c *L2) enterPanic(op *SliceOp) {
	op.panic_ = true
	c.st.L2PanicEvents++
	for _, e := range op.Slice.Elems {
		if w := c.probe(c.line(e.Addr)); w != nil {
			w.locked = true
		}
	}
}

func (c *L2) exitPanic(op *SliceOp) {
	op.panic_ = false
	for _, e := range op.Slice.Elems {
		if w := c.probe(c.line(e.Addr)); w != nil {
			w.locked = false
		}
	}
}

func (c *L2) lookupScalar(cy uint64, req scalarReq) {
	c.st.L2ScalarReqs++
	w := c.probe(req.addr)
	if req.wh64 {
		if w == nil {
			w = c.install(req.addr, true)
		} else {
			c.touch(w)
			c.markDirty(w)
		}
		if req.done != nil {
			c.wheel.AtCall(cy+1, callDone, req.done)
		}
		return
	}
	if w != nil {
		c.st.L2Hits++
		c.touch(w)
		if req.write {
			c.markDirty(w)
			w.pbit = true
		} else if !req.pref {
			w.pbit = true
		}
		if req.done != nil {
			lat := uint64(c.cfg.ScalarLat) + c.cfg.Faults.L2Latency(cy)
			c.wheel.AtCall(cy+lat, callDone, req.done)
		}
		return
	}
	c.st.L2Misses++
	if req.pref {
		// Prefetches are dropped rather than stalled when the MAF is full.
		c.requestFill(req.addr, nil)
		return
	}
	e := c.requestFill(req.addr, nil)
	if e == nil {
		// MAF full: retry the scalar request next cycle.
		c.st.MAFFullStalls++
		c.wheel.AtCall(cy+1, c.retryScalarFn, req)
		return
	}
	lat := uint64(c.cfg.ScalarLat) + c.cfg.Faults.L2Latency(cy)
	e.scalar = append(e.scalar, scalarWaiter{write: req.write, done: req.done, lat: lat})
}

// Depths reports the cache's queue occupancies for profiling tools.
func (c *L2) Depths() (readQ, writeQ, retryQ, maf int) {
	return c.readQ.Len(), c.writeQ.Len(), c.retryQ.Len(), c.MAFInUse()
}
