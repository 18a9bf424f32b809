package l2

import (
	"testing"

	"repro/internal/creorder"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/zbox"
)

func testSetup() (*L2, *zbox.Zbox, *stats.Stats) { return testSetupBytes(1 << 20) }

// testSetupBytes builds an 8-way cache of the given capacity over a small
// memory system.
func testSetupBytes(bytes int) (*L2, *zbox.Zbox, *stats.Stats) { return testSetupCache(bytes, 8) }

// testSetupCache builds a cache of the given capacity and associativity
// over a small memory system.
func testSetupCache(bytes, assoc int) (*L2, *zbox.Zbox, *stats.Stats) {
	st, reg := new(stats.Stats), new(metrics.Registry)
	z := zbox.New(zbox.Config{
		Ports: 8, LineCycles: 16, BaseLatency: 100,
		RowBytes: 2048, DevicesPerPort: 32, RowMissCycles: 12, TurnCycles: 5,
	}, st, reg)
	c := New(Config{
		Bytes: bytes, Assoc: assoc, LineBytes: 64,
		ScalarLat: 12, VecLatPump: 34, VecLatOdd: 38,
		MAFSize: 64, ReplayThreshold: 8, RetryDelay: 6,
		SliceQueue: 16, PBitPenalty: 12,
	}, st, reg, z)
	return c, z, st
}

func drive(c *L2, z *zbox.Zbox, from, max uint64) uint64 {
	cy := from
	for (c.Busy() || z.Busy()) && cy < from+max {
		cy++
		z.Tick(cy)
		c.Tick(cy)
	}
	return cy
}

// slice builds a conflict-free read/write slice over n distinct banks.
func mkSlice(base uint64, n int, write bool) *SliceOp {
	s := creorder.Slice{}
	for i := 0; i < n; i++ {
		s.Elems = append(s.Elems, creorder.Elem{Index: i, Addr: base + uint64(i)*64})
	}
	s.QWords = n
	return &SliceOp{Slice: s, Write: write}
}

func TestScalarMissThenHit(t *testing.T) {
	c, z, st := testSetup()
	var first, second uint64
	c.ScalarRead(0, 0x10000, func(cy uint64) { first = cy })
	drive(c, z, 0, 10_000)
	if first == 0 {
		t.Fatal("miss never filled")
	}
	if st.L2Misses != 1 {
		t.Fatalf("misses = %d", st.L2Misses)
	}
	c.ScalarRead(first, 0x10008, func(cy uint64) { second = cy })
	end := drive(c, z, first, 10_000)
	_ = end
	if second == 0 || second-first > uint64(c.cfg.ScalarLat)+4 {
		t.Fatalf("hit latency %d, want ≈%d", second-first, c.cfg.ScalarLat)
	}
	if st.L2Hits != 1 {
		t.Fatalf("hits = %d", st.L2Hits)
	}
}

func TestSliceHitLatencies(t *testing.T) {
	c, z, _ := testSetup()
	// Warm 16 lines via a write-allocating WH64 path.
	for i := uint64(0); i < 16; i++ {
		c.WH64(0, 0x20000+i*64, nil)
	}
	drive(c, z, 0, 10_000)

	var pumpDone, oddDone uint64
	p := mkSlice(0x20000, 16, false)
	p.Slice.Pump = true
	p.Done = func(cy uint64) { pumpDone = cy }
	c.SubmitSlice(p)
	start := uint64(1000)
	drive(c, z, start, 10_000)
	o := mkSlice(0x20000, 16, false)
	o.Done = func(cy uint64) { oddDone = cy }
	c.SubmitSlice(o)
	start2 := pumpDone
	drive(c, z, start2, 10_000)
	if pumpDone == 0 || oddDone == 0 {
		t.Fatal("slices never completed")
	}
	if lat := pumpDone - start; lat < 34 || lat > 40 {
		t.Fatalf("pump hit latency %d, want ≈34", lat)
	}
	if lat := oddDone - start2; lat < 38 || lat > 44 {
		t.Fatalf("odd-stride hit latency %d, want ≈38", lat)
	}
}

func TestSliceAtomicMissSleepsInMAF(t *testing.T) {
	c, z, st := testSetup()
	var done uint64
	s := mkSlice(0x40000, 16, false)
	s.Done = func(cy uint64) { done = cy }
	c.SubmitSlice(s)
	// Tick once: the slice looks up, misses on all 16 lines, sleeps.
	z.Tick(1)
	c.Tick(1)
	if st.L2Misses != 1 {
		t.Fatalf("expected one slice-granular miss, got %d", st.L2Misses)
	}
	if got := c.MAFInUse(); got != 16 {
		t.Fatalf("MAF holds %d fills, want 16", got)
	}
	if done != 0 {
		t.Fatal("slice completed before fills")
	}
	drive(c, z, 1, 10_000)
	if done == 0 {
		t.Fatal("slice never woke up")
	}
	// One replay: the retry walks the pipe again after the last fill.
	if st.L2SliceReplays != 1 {
		t.Fatalf("replays = %d, want 1", st.L2SliceReplays)
	}
	if st.MemReads != 16 {
		t.Fatalf("memory reads = %d, want 16", st.MemReads)
	}
}

func TestFillMergesSleepers(t *testing.T) {
	c, z, st := testSetup()
	done := 0
	for k := 0; k < 3; k++ {
		s := mkSlice(0x50000, 16, false) // same 16 lines each time
		s.Done = func(uint64) { done++ }
		c.SubmitSlice(s)
	}
	drive(c, z, 0, 20_000)
	if done != 3 {
		t.Fatalf("completed %d slices, want 3", done)
	}
	if st.MemReads != 16 {
		t.Fatalf("memory reads = %d, want 16 (fills merged)", st.MemReads)
	}
}

func TestWriteSliceMarksDirtyAndWritesBack(t *testing.T) {
	c, z, st := testSetup()
	var done uint64
	s := mkSlice(0x60000, 16, true)
	s.Done = func(cy uint64) { done = cy }
	c.SubmitSlice(s)
	drive(c, z, 0, 20_000)
	if done == 0 {
		t.Fatal("write slice never completed")
	}
	if st.MemDirOps != 16 {
		t.Fatalf("dirty upgrades = %d, want 16", st.MemDirOps)
	}
	// Evict by filling the same sets with > assoc distinct tags.
	// Set period for a 1 MiB 8-way cache is 128 KiB.
	for w := uint64(1); w <= 9; w++ {
		for i := uint64(0); i < 16; i++ {
			c.ScalarRead(0, 0x60000+w*(1<<17)+i*64, nil)
		}
		drive(c, z, done+w*5000, 20_000)
	}
	if st.L2Writebacks == 0 {
		t.Fatal("dirty lines were never written back")
	}
	if st.MemWrites == 0 {
		t.Fatal("writebacks did not reach the controller")
	}
}

func TestPBitInvalidateOnVectorTouch(t *testing.T) {
	c, z, st := testSetup()
	invalidated := map[uint64]bool{}
	c.OnPBitInvalidate = func(line uint64) bool {
		invalidated[line] = true
		return false
	}
	// Scalar read sets the P-bit.
	c.ScalarRead(0, 0x70000, nil)
	drive(c, z, 0, 10_000)
	// Vector slice touching the same line must invalidate the L1 copy.
	s := mkSlice(0x70000, 1, false)
	var done uint64
	s.Done = func(cy uint64) { done = cy }
	c.SubmitSlice(s)
	drive(c, z, 5000, 10_000)
	if done == 0 {
		t.Fatal("slice never completed")
	}
	if !invalidated[0x70000] {
		t.Fatal("L1 was not invalidated on the P-bit touch")
	}
	if st.L2PBitInvalidates == 0 {
		t.Fatal("P-bit invalidate not counted")
	}
}

func TestWH64DoesNotSetPBit(t *testing.T) {
	c, z, _ := testSetup()
	called := false
	c.OnPBitInvalidate = func(uint64) bool { called = true; return false }
	c.WH64(0, 0x80000, nil)
	drive(c, z, 0, 10_000)
	s := mkSlice(0x80000, 1, true)
	c.SubmitSlice(s)
	drive(c, z, 1000, 10_000)
	if called {
		t.Fatal("WH64 allocation must not set the P-bit (it bypasses the L1)")
	}
}

func TestWH64AvoidsMemoryRead(t *testing.T) {
	c, z, st := testSetup()
	c.WH64(0, 0x90000, nil)
	drive(c, z, 0, 10_000)
	if st.MemReads != 0 {
		t.Fatalf("WH64 caused %d memory reads, want 0", st.MemReads)
	}
	if st.MemDirOps != 1 {
		t.Fatalf("WH64 dir ops = %d, want 1 (Invalid→Dirty)", st.MemDirOps)
	}
}

func TestMAFFullBackpressure(t *testing.T) {
	c, z, st := testSetup()
	// 5 slices × 16 distinct lines = 80 fills > 64 MAF entries.
	done := 0
	for k := 0; k < 5; k++ {
		s := mkSlice(0xA0000+uint64(k)*16*64, 16, false)
		s.Done = func(uint64) { done++ }
		c.SubmitSlice(s)
	}
	drive(c, z, 0, 50_000)
	if done != 5 {
		t.Fatalf("completed %d slices, want 5", done)
	}
	if st.MAFPeak < 60 {
		t.Fatalf("MAF peak %d suspiciously low", st.MAFPeak)
	}
	if st.MAFFullStalls == 0 {
		t.Fatal("expected MAF-full stalls with 80 outstanding fills")
	}
}

func TestPumpBusOccupancy(t *testing.T) {
	c, z, _ := testSetup()
	for i := uint64(0); i < 32; i++ {
		c.WH64(0, 0xB0000+i*64, nil)
	}
	drive(c, z, 0, 10_000)
	// Two pump read slices: the second must start ≥4 cycles after the
	// first (32 qw/cycle streaming occupies the read bus 4 cycles).
	var d1, d2 uint64
	p1 := mkSlice(0xB0000, 16, false)
	p1.Slice.Pump = true
	p1.Done = func(cy uint64) { d1 = cy }
	p2 := mkSlice(0xB0000+16*64, 16, false)
	p2.Slice.Pump = true
	p2.Done = func(cy uint64) { d2 = cy }
	c.SubmitSlice(p1)
	c.SubmitSlice(p2)
	drive(c, z, 2000, 10_000)
	if d1 == 0 || d2 == 0 {
		t.Fatal("pump slices never completed")
	}
	if d2-d1 != 4 {
		t.Fatalf("second pump slice finished %d cycles after the first, want 4", d2-d1)
	}
}

// TestPanicModeOnRepeatedReplay: a scalar stream keeps evicting the lines
// of a two-line slice from a 2-way cache, so the line found resident at one
// lookup is gone by the replay that follows the other's fill. The second
// miss enters panic mode, which pins the resident line while the other is
// fetched; without the pin the slice starves.
func TestPanicModeOnRepeatedReplay(t *testing.T) {
	c, z, st := testSetupCache(1<<20, 2)
	c.cfg.ReplayThreshold = 1
	// Neighbouring lines sit in two sets served by two memory ports, and
	// each set's next line lies 8192 sets (1<<19 bytes) further on.
	const a, b, stride = 0xC0000, 0xC0040, 1 << 19
	c.ScalarPrefetch(0, a)
	cy := drive(c, z, 0, 10_000)
	var done uint64
	s := mkSlice(a, 2, false)
	s.Done = func(d uint64) { done = d }
	// One scalar fill to each set every 32 cycles, within what a port
	// serves (a line per 28 cycles), installs about four lines per set
	// while either slice line is fetched; two evict an unpinned line.
	for i := uint64(0); done == 0 && i < 40_000; i++ {
		cy++
		switch i % 32 {
		case 0:
			c.ScalarRead(cy, a+(1+i/32)*stride, nil)
		case 16:
			c.ScalarRead(cy, b+(1+i/32)*stride, nil)
		}
		if i == 40 {
			c.SubmitSlice(s)
		}
		z.Tick(cy)
		c.Tick(cy)
	}
	if done == 0 {
		t.Fatal("slice starved forever: panic mode failed to guarantee progress")
	}
	if st.L2PanicEvents == 0 {
		t.Fatal("slice completed without entering panic mode: no replay missed twice")
	}
}

func TestScalarPrefetchDoesNotBlock(t *testing.T) {
	c, z, st := testSetup()
	c.ScalarPrefetch(0, 0xD0000)
	drive(c, z, 0, 10_000)
	if st.MemReads != 1 {
		t.Fatalf("prefetch fetched %d lines, want 1", st.MemReads)
	}
	// Line must now be resident: a read hits.
	var done uint64
	c.ScalarRead(5000, 0xD0000, func(cy uint64) { done = cy })
	drive(c, z, 5000, 1000)
	if done == 0 || st.L2Hits != 1 {
		t.Fatalf("prefetched line not resident (hits=%d)", st.L2Hits)
	}
}

// TestMAFEntriesStartWithWaiterRoom: a fresh L2's MAF entries have room
// for their first waiters without appends growing them, and an entry that
// outgrows its share of the shared arrays reallocates instead of writing
// into its neighbour's.
func TestMAFEntriesStartWithWaiterRoom(t *testing.T) {
	c, _, _ := testSetup()
	for i, e := range c.mafFree {
		if len(e.sleepers) != 0 || cap(e.sleepers) != mafSleepers || len(e.scalar) != 0 || cap(e.scalar) != mafScalar {
			t.Fatalf("entry %d starts with sleepers %d/%d and scalar waiters %d/%d (len/cap), want 0/%d and 0/%d",
				i, len(e.sleepers), cap(e.sleepers), len(e.scalar), cap(e.scalar), mafSleepers, mafScalar)
		}
	}
	// The free stack holds the entries in array order, so its last two are
	// neighbours in the shared arrays; the lower one outgrows its share.
	first, next := c.mafFree[len(c.mafFree)-2], c.mafFree[len(c.mafFree)-1]
	ops := make([]SliceOp, mafSleepers+1)
	for i := range ops {
		first.sleepers = append(first.sleepers, &ops[i])
	}
	for range mafScalar + 1 {
		first.scalar = append(first.scalar, scalarWaiter{write: true})
	}
	if s := next.sleepers[:1]; s[0] != nil {
		t.Error("an entry's sleepers spilled into its neighbour's")
	}
	if s := next.scalar[:1]; s[0].write {
		t.Error("an entry's scalar waiters spilled into its neighbour's")
	}
}

// TestSteadyStateSliceMissAllocatesNothing pins the MAF's recycling: once
// the entries and the tag-store chunks exist, a slice that misses on all 16
// of its lines, sleeps in the MAF, is filled and replays allocates nothing.
func TestSteadyStateSliceMissAllocatesNothing(t *testing.T) {
	c, z, st := testSetup()
	// Nine slices over the same 16 sets, one per 128 KiB set period of the
	// 1 MiB 8-way cache: each evicts the least recently used of the other
	// eight from every set, so every lookup of every slice misses.
	var slices [9]creorder.Slice
	for k := range slices {
		slices[k] = mkSlice(0x40000+uint64(k)<<17, 16, false).Slice
	}
	completed := 0
	done := func(uint64) { completed++ }
	var op SliceOp
	cy, k := uint64(0), 0
	missFillReplay := func() {
		op = SliceOp{Slice: slices[k%len(slices)], Done: done}
		k++
		if !c.SubmitSlice(&op) {
			t.Fatal("the slice queue refused a slice")
		}
		cy = drive(c, z, cy, 10_000)
	}
	// Allocate the tag-store chunk and grow the rings, wheels and MAF
	// waiter lists to their working size.
	for range slices {
		missFillReplay()
	}
	misses, replays := st.L2Misses, st.L2SliceReplays
	if got := testing.AllocsPerRun(100, missFillReplay); got != 0 {
		t.Errorf("%.1f allocations per slice miss, fill and replay, want 0", got)
	}
	// AllocsPerRun makes one warm-up run before the measured ones.
	if st.L2Misses-misses != 101 || st.L2SliceReplays-replays != 101 || completed != len(slices)+101 {
		t.Errorf("%d misses, %d replays and %d completions over 101 slices: not a miss, fill and replay each",
			st.L2Misses-misses, st.L2SliceReplays-replays, completed-len(slices))
	}
}

// TestPrefetchSliceReleasedAtLookup: a prefetch slice's Done says only that
// the cache holds the op no longer. It fires in the cycle of the lookup
// that completes the slice, and nothing is scheduled after it, so the
// cache goes idle in that cycle.
func TestPrefetchSliceReleasedAtLookup(t *testing.T) {
	c, z, st := testSetup()
	var released uint64
	s := mkSlice(0x30000, 16, false)
	s.Prefetch = true
	s.Done = func(cy uint64) { released = cy }
	c.SubmitSlice(s)
	end := drive(c, z, 0, 10_000)
	if released == 0 {
		t.Fatal("the prefetch slice was never released")
	}
	if end != released {
		t.Errorf("released at cycle %d, the cache went idle at %d", released, end)
	}
	if st.L2Misses != 1 || st.L2SliceReplays != 1 {
		t.Errorf("%d misses and %d replays, want the one miss and replay of a cold slice", st.L2Misses, st.L2SliceReplays)
	}
}
