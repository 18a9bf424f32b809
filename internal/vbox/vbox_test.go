package vbox

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/l2"
	"repro/internal/metrics"
	"repro/internal/pipe"
	"repro/internal/zbox"
)

func testVBox(queue int) *VBox {
	v, _ := testVBoxZbox(queue)
	return v
}

// testVBoxZbox is testVBox that also returns the memory controller, for
// tests that tick the whole memory pipeline.
func testVBoxZbox(queue int) (*VBox, *zbox.Zbox) {
	reg := metrics.NewRegistry()
	z := zbox.New(zbox.Config{
		Ports: 8, LineCycles: 16, BaseLatency: 100,
		RowBytes: 2048, DevicesPerPort: 32, RowMissCycles: 12, TurnCycles: 5,
	}, reg)
	l2c := l2.New(l2.Config{
		Bytes: 1 << 20, Assoc: 8, LineBytes: 64,
		ScalarLat: 12, VecLatPump: 34, VecLatOdd: 38,
		MAFSize: 64, ReplayThreshold: 8, RetryDelay: 6,
		SliceQueue: 16, PBitPenalty: 12,
	}, reg, z)
	v := New(Config{
		Lanes: 16, Queue: queue, DispatchWidth: 3, OperandBuses: 2,
		Ports: 2, MemInsts: 16, PumpEnabled: true,
		TLBEntries: 32, PageBits: 29, TLBRefillCycles: 200, TLBRefillAll: true,
		WritebackLat: 2,
	}, reg, l2c)
	v.OnDone = func(uint64, *pipe.UOp) {}
	return v, z
}

func TestDispatchBackpressure(t *testing.T) {
	v := testVBox(2)
	u := func() *pipe.UOp { return &pipe.UOp{} }
	if !v.Dispatch(1, u()) || !v.Dispatch(1, u()) {
		t.Fatal("queue of 2 must accept two instructions")
	}
	if v.Dispatch(1, u()) {
		t.Fatal("third dispatch must be rejected (queue full)")
	}
}

func TestLaneTLBCapacityAndLRU(t *testing.T) {
	tlb := laneTLB{cap: 4, pages: map[uint64]uint64{}}
	for p := uint64(0); p < 4; p++ {
		if tlb.lookup(p) {
			t.Fatalf("page %d should miss initially", p)
		}
		tlb.insert(p)
	}
	// All resident.
	for p := uint64(0); p < 4; p++ {
		if !tlb.lookup(p) {
			t.Fatalf("page %d should hit", p)
		}
	}
	// Touch 0..2 so page 3 is LRU, then insert a fifth page.
	tlb.lookup(0)
	tlb.lookup(1)
	tlb.lookup(2)
	tlb.insert(99)
	if tlb.lookup(3) {
		t.Fatal("LRU page 3 should have been evicted")
	}
	if !tlb.lookup(99) || !tlb.lookup(0) {
		t.Fatal("recently used pages evicted instead")
	}
}

func TestOccupancyCeiling(t *testing.T) {
	v := testVBox(64)
	cases := []struct {
		vl   int
		want uint64
	}{{128, 8}, {100, 7}, {16, 1}, {1, 1}, {17, 2}, {0, 1}}
	for _, c := range cases {
		u := &pipe.UOp{}
		u.Eff.VL = c.vl
		if got := v.occupancy(u); got != c.want {
			t.Errorf("occupancy(vl=%d) = %d, want %d", c.vl, got, c.want)
		}
	}
}

// TestTLBFastPathChecksEveryGatherElement: once page 0 is the hot page, a
// gather whose first and last elements lie in page 0 but whose middle
// element lies in page 1 must still translate page 1 and pay the refill.
func TestTLBFastPathChecksEveryGatherElement(t *testing.T) {
	v := testVBox(64)
	access := func(addrs ...uint64) *pipe.UOp {
		u := &pipe.UOp{}
		for i, a := range addrs {
			u.Eff.Addrs = append(u.Eff.Addrs, a)
			u.Eff.ElemIdx = append(u.Eff.ElemIdx, uint8(i))
		}
		return u
	}
	page := uint64(1) << v.cfg.PageBits
	// Map page 0 in every lane (the test machine refills all lanes in one
	// trap), making it the hot page.
	if got := v.tlbCheck(access(64, 128)); got != 200 {
		t.Fatalf("first touch of page 0 stalled %d cycles, want the 200-cycle refill", got)
	}
	if got := v.tlbCheck(access(64, 128, 192)); got != 0 {
		t.Fatalf("access within the mapped hot page stalled %d cycles, want 0", got)
	}
	misses := v.tlbMisses.Value()
	if got := v.tlbCheck(access(64, page+64, 128)); got != 200 {
		t.Errorf("gather touching pages 0, 1, 0 stalled %d cycles, want the 200-cycle refill", got)
	}
	if v.tlbMisses.Value() != misses+1 {
		t.Errorf("gather touching pages 0, 1, 0 missed %d times, want 1", v.tlbMisses.Value()-misses)
	}
	if v.lastPageHot {
		t.Error("a gather spanning two pages left a hot page behind")
	}
}

// TestSliceRecordsAreRecycled: once every slice of a load and of a prefetch
// has completed, both instructions' records are back on the free list, and
// later instructions reuse them instead of making new ones.
func TestSliceRecordsAreRecycled(t *testing.T) {
	v, z := testVBoxZbox(64)
	done := 0
	v.OnDone = func(uint64, *pipe.UOp) { done++ }
	// A stride-1 access of 128 quadwords: one pump slice per 1 KiB block.
	vload := func(dst isa.Reg, base uint64) *pipe.UOp {
		u := &pipe.UOp{Inst: isa.Inst{Op: isa.OpVLDQ, Dst: dst, Src2: isa.R(1)}}
		u.Info = u.Inst.Info()
		u.Eff.VL, u.Eff.Stride, u.Eff.Base = isa.VLMax, 8, base
		for i := 0; i < isa.VLMax; i++ {
			u.Eff.Addrs = append(u.Eff.Addrs, base+uint64(i)*8)
			u.Eff.ElemIdx = append(u.Eff.ElemIdx, uint8(i))
		}
		return u
	}
	freeRecords := func() int {
		n := 0
		for r := v.freeRecs; r != nil; r = r.next {
			n++
		}
		return n
	}
	cy := uint64(0)
	run := func(us ...*pipe.UOp) {
		for _, u := range us {
			if !v.Dispatch(cy, u) {
				t.Fatal("dispatch refused")
			}
			v.MarkReady(cy, u)
		}
		for start := cy; v.Busy() || v.l2c.Busy() || z.Busy(); {
			cy++
			if cy-start > 100_000 {
				t.Fatal("the memory pipeline never drained")
			}
			z.Tick(cy)
			v.l2c.Tick(cy)
			v.Tick(cy)
		}
	}
	run(vload(isa.V(1), 1<<20), vload(isa.VZero, 2<<20))
	if done != 2 {
		t.Fatalf("%d of 2 instructions completed", done)
	}
	if n := freeRecords(); n != 2 {
		t.Fatalf("%d records free after a load and a prefetch drained, want 2", n)
	}
	run(vload(isa.V(2), 3<<20), vload(isa.VZero, 4<<20))
	if n := freeRecords(); n != 2 {
		t.Fatalf("%d records free after a second pair drained, want the first pair's 2 again", n)
	}
}
