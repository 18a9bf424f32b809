// Package vbox is the timing model of Tarantula's vector execution engine
// (§3.2–§3.4): sixteen identical lanes fronted by two issue ports (an
// instruction occupies a port for ⌈vl/16⌉ cycles, so a dual-issue window
// governs 32 functional units), the address generators feeding the
// conflict-free reordering scheme or the CR box, per-lane 32-entry TLBs with
// PAL refill, and the slice pipeline into the L2.
//
// Renaming and retirement happen in the core on the Vbox's behalf (§3.3);
// the Vbox receives renamed micro-ops over a 3-instruction bus, pulls scalar
// operands over two 64-bit operand buses, and reports completions back.
package vbox

import (
	"repro/internal/creorder"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/l2"
	"repro/internal/metrics"
	"repro/internal/pipe"
	"repro/internal/sched"
	"repro/internal/vm"
)

// Config sets the Vbox structure sizes and timing.
type Config struct {
	Lanes int // 16

	Queue         int // instruction queue entries
	DispatchWidth int // instructions per cycle over the core→Vbox bus (3)
	OperandBuses  int // scalar operands per cycle from the EV8 register file (2)

	Ports int // issue ports (2: north and south)

	MemInsts int // vector memory instructions simultaneously in the memory pipeline

	// PumpEnabled selects stride-1 double-bandwidth mode; Figure 9 turns
	// it off.
	PumpEnabled bool

	// Per-lane TLBs: 32 fully associative entries over 512 MB pages (§3.4).
	TLBEntries      int
	PageBits        int  // 29 for 512 MB pages
	TLBRefillCycles int  // PAL refill cost
	TLBRefillAll    bool // PAL strategy (2): refill every mapping the
	// instruction needs in one trap, instead of per-lane refills.

	// WritebackLat is the lane register-file write latency after the last
	// slice of a load returns.
	WritebackLat int

	// PhysVRegs is the physical vector register file size (32 architected
	// + rename copies). Renaming a vector destination stalls dispatch when
	// no physical register is free — the pressure §3.3 mentions: making
	// the Vbox multithreaded "forced using a much larger register file".
	// Zero means unlimited.
	PhysVRegs int

	// Faults, when non-nil, can freeze the issue ports for a cycle
	// (sim.New installs the chip's injector).
	Faults *faults.Injector
}

// VBox is the vector engine model. It satisfies core.VectorUnit.
type VBox struct {
	cfg Config
	l2c *l2.L2

	// Registered counter handles (vbox.* namespace).
	vsBusTransfers metrics.Counter
	addrGenCycles  metrics.Counter
	reorderSlices  metrics.Counter
	crRounds       metrics.Counter
	crSlices       metrics.Counter
	tlbMisses      metrics.Counter
	tlbRefills     metrics.Counter

	// Space is the address space whose page table PALcode walks on TLB
	// refills; the simulator runs identity-mapped.
	Space *vm.Space

	// OnDone is the completion path back to the core (the VCU sending
	// instruction identifiers for retirement, §3.3).
	OnDone func(cy uint64, u *pipe.UOp)

	queued     int
	vregsInUse int // physical vector registers held by in-flight writers
	readyArith pipe.ReadyQueue
	readyMem   sched.Ring[*pipe.UOp] // FIFO: the address generators serialise these

	portFree []uint64

	opBusAt   uint64
	opBusUsed int

	agFree   uint64 // address generators busy until
	memInFly int

	readSubQ  sched.Ring[pendingSlice]
	writeSubQ sched.Ring[pendingSlice]

	tlb         []laneTLB
	lastPage    uint64
	lastPageHot bool
	cr          creorder.CRBox
	tagSeq      int

	wheel *sched.Wheel

	// Bound method values for AtCall, so completion scheduling allocates
	// nothing per event.
	finishFn    func(uint64, any)
	memFinishFn func(uint64, any)

	// activeScratch is the per-instruction element mask, reused across
	// buildSlices calls instead of allocated per vector memory instruction.
	activeScratch [isa.VLMax]bool
	elemScratch   []creorder.Elem

	// freeRecs lists the slice records no instruction holds.
	freeRecs *memRecord
}

type pendingSlice struct {
	op      *l2.SliceOp
	availCy uint64 // cycle the address generators produce it
}

// memRecord is one vector memory instruction's slice storage: its
// address-generation output, the slice requests the submit queues and the
// L2 point into, and the completion callback all its slices share, bound
// once when the record is made. The Vbox recycles a record once the L2 has
// finished every one of its slices and so holds none of its requests; in
// steady state a vector memory instruction allocates nothing.
type memRecord struct {
	v    *VBox
	u    *pipe.UOp // the instruction waiting on the slices; nil for a prefetch
	out  int       // slices the L2 has not finished
	buf  creorder.Buf
	ops  []l2.SliceOp
	done func(cycle uint64) // sliceDone, bound once
	next *memRecord         // free list link
}

// takeRecord returns a free slice record, making one when none is free.
func (v *VBox) takeRecord() *memRecord {
	r := v.freeRecs
	if r == nil {
		r = &memRecord{v: v}
		r.done = r.sliceDone
		return r
	}
	v.freeRecs, r.next = r.next, nil
	return r
}

// freeRecord returns r to the free list.
func (v *VBox) freeRecord(r *memRecord) {
	r.u = nil
	r.next = v.freeRecs
	v.freeRecs = r
}

// sliceDone is the L2's callback for each of the record's slices. After the
// last one, a load or store schedules its register writeback and
// completion, and the record is free.
func (r *memRecord) sliceDone(doneCy uint64) {
	r.out--
	if r.out > 0 {
		return
	}
	v := r.v
	if r.u != nil {
		v.wheel.AtCall(doneCy+uint64(v.cfg.WritebackLat), v.memFinishFn, r.u)
	}
	v.freeRecord(r)
}

// New returns a Vbox bound to the L2, registering its counters and
// occupancy gauges under the registry's vbox namespace.
func New(cfg Config, reg *metrics.Registry, l2c *l2.L2) *VBox {
	v := &VBox{
		cfg:      cfg,
		l2c:      l2c,
		portFree: make([]uint64, cfg.Ports),
		tlb:      make([]laneTLB, cfg.Lanes),
		wheel:    sched.NewWheel(),
	}
	for i := range v.tlb {
		v.tlb[i] = laneTLB{cap: cfg.TLBEntries, pages: map[uint64]uint64{}}
	}
	v.finishFn = func(cy uint64, a any) { v.finish(cy, a.(*pipe.UOp)) }
	v.memFinishFn = func(cy uint64, a any) {
		v.memInFly--
		v.finish(cy, a.(*pipe.UOp))
	}
	v.Space = vm.NewIdentity()
	m := reg.Scope("vbox")
	v.vsBusTransfers = m.Counter("vs_bus_transfers")
	v.addrGenCycles = m.Counter("addr_gen_cycles")
	v.reorderSlices = m.Counter("reorder_slices")
	v.crRounds = m.Counter("cr_rounds")
	v.crSlices = m.Counter("cr_slices")
	v.tlbMisses = m.Counter("tlb_misses")
	v.tlbRefills = m.Counter("tlb_refills")
	m.Gauge("ports_busy", "Issue ports mid-instruction.",
		func(cy uint64) int { return v.Snapshot(cy).PortsBusy })
	m.Gauge("mem_in_fly", "Vector memory instructions in the pipeline.",
		func(uint64) int { return v.memInFly })
	m.Gauge("queued", "Dispatched, waiting vector instructions.",
		func(uint64) int { return v.queued })
	m.Gauge("slices_wait", "Slices generated but not yet accepted by the L2.",
		func(uint64) int { return v.readSubQ.Len() + v.writeSubQ.Len() })
	return v
}

// hasVDest reports whether u allocates a physical vector register.
func hasVDest(u *pipe.UOp) bool {
	return u.Inst.Dst.Kind == isa.KindVec && !u.Inst.Dst.IsZero() && !u.Info.IsStore
}

// Dispatch accepts a renamed vector instruction from the core's bus; false
// applies backpressure (queue full, or no free physical vector register for
// the destination).
func (v *VBox) Dispatch(cy uint64, u *pipe.UOp) bool {
	if v.queued >= v.cfg.Queue {
		return false
	}
	if hasVDest(u) {
		if v.cfg.PhysVRegs > 0 && v.vregsInUse >= v.cfg.PhysVRegs-32 {
			return false // rename stall: register file exhausted
		}
		v.vregsInUse++
	}
	v.queued++
	return true
}

// finish releases the physical register (approximating the free at the
// point the value is architecturally visible) and reports completion.
func (v *VBox) finish(cy uint64, u *pipe.UOp) {
	if hasVDest(u) {
		v.vregsInUse--
	}
	v.OnDone(cy, u)
}

// MarkReady is called by the core's wakeup logic when the op's last source
// operand (scalar or vector) completes.
func (v *VBox) MarkReady(cy uint64, u *pipe.UOp) {
	if u.Info.IsVMem() {
		v.readyMem.Push(u)
	} else {
		v.readyArith.Push(u)
	}
}

// Busy reports in-flight Vbox work.
func (v *VBox) Busy() bool {
	return v.queued > 0 || v.memInFly > 0 || v.readyArith.Len() > 0 ||
		v.readyMem.Len() > 0 || v.readSubQ.Len() > 0 || v.writeSubQ.Len() > 0 ||
		v.wheel.Pending()
}

// Tick advances the Vbox one cycle.
func (v *VBox) Tick(cy uint64) {
	v.wheel.Advance(cy)
	v.submitSlices(cy)
	v.issue(cy)
}

// ---- issue ----

func (v *VBox) issue(cy uint64) {
	if v.cfg.Faults.StallVPorts(cy) {
		return // injected port stall: nothing issues this cycle
	}
	// One memory instruction can enter the address generators per cycle;
	// head-of-line only, since the AG stage serialises them anyway.
	if v.readyMem.Len() > 0 && v.issueMem(cy, v.readyMem.Peek()) {
		v.readyMem.Pop()
	}
	// Arithmetic issues oldest-first while ports accept.
	for issued := 0; v.readyArith.Len() > 0 && issued < v.cfg.Ports; issued++ {
		if !v.tryIssueArith(cy, v.readyArith.Peek()) {
			break
		}
		v.readyArith.Pop()
	}
}

// needsOperandBus reports how many scalar operands ride the operand buses
// for this instruction ("all vector instructions except those of the VV
// group require a scalar operand", §3.3).
func needsOperandBus(info *isa.Info) int {
	switch info.Group {
	case isa.GVV:
		return 0
	case isa.GSM, isa.GRM, isa.GVS, isa.GVC:
		return 1
	}
	return 0
}

func (v *VBox) takeOperandBus(cy uint64, n int) bool {
	if n == 0 {
		return true
	}
	if v.opBusAt != cy {
		v.opBusAt, v.opBusUsed = cy, 0
	}
	if v.opBusUsed+n > v.cfg.OperandBuses {
		return false
	}
	v.opBusUsed += n
	v.vsBusTransfers.Add(uint64(n))
	return true
}

func (v *VBox) tryIssueArith(cy uint64, u *pipe.UOp) bool {
	// Arithmetic / control: needs a free issue port; the sixteen lanes of
	// that port then work synchronously for ⌈vl/16⌉ cycles.
	port := -1
	for p := range v.portFree {
		if v.portFree[p] <= cy {
			port = p
			break
		}
	}
	if port == -1 {
		return false
	}
	if !v.takeOperandBus(cy, needsOperandBus(u.Info)) {
		return false
	}
	info := u.Info
	occ := v.occupancy(u)
	if info.Unpipelined {
		// Divide/sqrt iterate in the lanes: the port is held for the whole
		// element-serial operation.
		occ *= uint64(info.Latency)
	}
	v.portFree[port] = cy + occ
	v.queued--
	done := cy + occ + uint64(info.Latency)
	v.wheel.AtCall(done, v.finishFn, u)
	return true
}

// occupancy is ⌈vl/16⌉ — the port-busy time of §3.2 ("typically, 8 cycles").
func (v *VBox) occupancy(u *pipe.UOp) uint64 {
	vl := u.Eff.VL
	if vl <= 0 {
		vl = 1
	}
	occ := (vl + v.cfg.Lanes - 1) / v.cfg.Lanes
	return uint64(occ)
}

// ---- memory pipeline ----

func (v *VBox) issueMem(cy uint64, u *pipe.UOp) bool {
	if v.memInFly >= v.cfg.MemInsts {
		return false
	}
	if v.agFree > cy {
		return false
	}
	if !v.takeOperandBus(cy, needsOperandBus(u.Info)) {
		return false
	}

	write := u.Info.IsStore
	prefetch := u.Inst.IsPrefetchWith(u.Info)

	// TLB: translate every active element's page in the lane that generates
	// it. Misses on prefetches are squashed (§2).
	agStart := cy + 1
	if !prefetch {
		agStart += v.tlbCheck(u)
	}

	r := v.takeRecord()
	slices, agCycles := v.buildSlices(u, &r.buf)
	v.addrGenCycles.Add(uint64(agCycles))
	v.agFree = agStart + uint64(agCycles)
	v.queued--
	v.memInFly++

	if len(slices) == 0 {
		// vl=0 or fully masked-off: nothing to transfer.
		v.freeRecord(r)
		v.wheel.AtCall(v.agFree, v.memFinishFn, u)
		return true
	}

	r.out = len(slices)
	if prefetch {
		// Prefetches do not block: the instruction completes once its
		// addresses are generated; the slices fill the L2 in the background.
		v.wheel.AtCall(v.agFree, v.memFinishFn, u)
	} else {
		r.u = u
	}
	q := &v.readSubQ
	if write {
		q = &v.writeSubQ
	}
	// The submit queue points into the record's slice requests until the
	// L2 accepts each.
	if cap(r.ops) < len(slices) {
		r.ops = make([]l2.SliceOp, len(slices))
	}
	ops := r.ops[:len(slices)]
	for i, s := range slices {
		ops[i] = l2.SliceOp{Slice: s, Write: write, Prefetch: prefetch, Done: r.done}
		q.Push(pendingSlice{op: &ops[i], availCy: agStart + uint64(i)})
	}
	return true
}

// buildSlices runs the address-generation path for a vector memory
// instruction: pump / reorder ROM / CR box, writing into buf. It returns the
// slices and the number of address-generation cycles consumed.
func (v *VBox) buildSlices(u *pipe.UOp, buf *creorder.Buf) ([]creorder.Slice, int) {
	eff := &u.Eff
	group := u.Info.Group
	tag0 := v.tagSeq

	if group == isa.GSM {
		active := v.activeScratch[:]
		clear(active)
		for _, idx := range eff.ElemIdx {
			active[idx] = true
		}
		var slices []creorder.Slice
		var mode creorder.Mode
		if v.cfg.PumpEnabled {
			slices, mode = creorder.ScheduleStrided(eff.Base, eff.Stride, active, tag0, buf)
		} else {
			slices, mode = creorder.ScheduleStridedNoPump(eff.Base, eff.Stride, active, tag0, buf)
		}
		switch mode {
		case creorder.ModePump:
			v.tagSeq += len(slices)
			// The modified control produces the sixteen line addresses
			// directly: one cycle per pump slice.
			return slices, len(slices)
		case creorder.ModeReorder:
			v.reorderSlices.Add(uint64(len(slices)))
			v.tagSeq += len(slices)
			// Eight address-generation cycles regardless of vl (§3.4).
			ag := 8
			if len(slices) > ag {
				ag = len(slices)
			}
			return slices, ag
		default:
			// Self-conflicting stride: "treated exactly like a
			// gather/scatter and run through the CR box" (§3.4).
			slices, rounds := v.cr.PackStrided(eff.Base, eff.Stride, active, tag0, buf)
			v.tagSeq += len(slices)
			v.crRounds.Add(uint64(rounds))
			v.crSlices.Add(uint64(len(slices)))
			return slices, rounds
		}
	}

	// Gather/scatter: random addresses through the CR box.
	if cap(v.elemScratch) < len(eff.Addrs) {
		v.elemScratch = make([]creorder.Elem, len(eff.Addrs))
	}
	elems := v.elemScratch[:len(eff.Addrs)]
	for i, a := range eff.Addrs {
		elems[i] = creorder.Elem{Index: int(eff.ElemIdx[i]), Addr: a}
	}
	slices, rounds := v.cr.Pack(elems, tag0, buf)
	v.tagSeq += len(slices)
	v.crRounds.Add(uint64(rounds))
	v.crSlices.Add(uint64(len(slices)))
	return slices, rounds
}

// submitSlices pushes at most one available slice per direction into the L2
// each cycle, preserving pipeline order.
func (v *VBox) submitSlices(cy uint64) {
	for _, q := range [...]*sched.Ring[pendingSlice]{&v.readSubQ, &v.writeSubQ} {
		if q.Len() > 0 && q.Peek().availCy <= cy && v.l2c.SubmitSlice(q.Peek().op) {
			q.Pop()
		}
	}
}

// ---- per-lane TLBs ----

type laneTLB struct {
	cap   int
	pages map[uint64]uint64 // page -> last-use tick
	tick  uint64
}

func (t *laneTLB) lookup(page uint64) bool {
	t.tick++
	if _, ok := t.pages[page]; ok {
		t.pages[page] = t.tick
		return true
	}
	return false
}

func (t *laneTLB) insert(page uint64) {
	t.tick++
	if len(t.pages) >= t.cap {
		// Evict LRU (fully associative, §3.4: CAM-based, 32 entries).
		var victim uint64
		oldest := ^uint64(0)
		for p, use := range t.pages {
			if use < oldest {
				oldest, victim = use, p
			}
		}
		delete(t.pages, victim)
	}
	t.pages[page] = t.tick
}

// inPage reports whether every address lies in page. Each address is
// compared: a strided access's addresses are monotone, so its first and last
// would bound it, but a gather's middle elements can lie in any page.
func (v *VBox) inPage(addrs []uint64, page uint64) bool {
	for _, a := range addrs {
		if a>>v.cfg.PageBits != page {
			return false
		}
	}
	return true
}

// tlbCheck translates every active element and returns the stall cycles due
// to TLB refills. Strategy (1) refills only missing lanes (one trap per
// batch of misses); strategy (2) peeks at vs and refills every mapping the
// instruction needs in a single trap (§3.4).
func (v *VBox) tlbCheck(u *pipe.UOp) uint64 {
	// Fast path: the common case is an access confined to one recently
	// used 512 MB page (every lane already maps it).
	if len(u.Eff.Addrs) > 0 && v.lastPageHot && v.inPage(u.Eff.Addrs, v.lastPage) {
		return 0
	}
	misses := 0
	for i, a := range u.Eff.Addrs {
		lane := int(u.Eff.ElemIdx[i]) % v.cfg.Lanes
		page := a >> v.cfg.PageBits
		if !v.tlb[lane].lookup(page) {
			misses++
			v.tlbMisses.Inc()
			// PALcode walks the page table; only valid PTEs enter the TLB
			// (an invalid mapping would be an access fault — the workloads
			// run identity-mapped, so it cannot arise here).
			if _, ok := v.Space.Lookup(a); !ok {
				continue
			}
			v.tlb[lane].insert(page)
			if v.cfg.TLBRefillAll {
				// One PALcode invocation loads the mapping into every lane
				// (strategy (2): peek at vs for all needed pages).
				for l := range v.tlb {
					if !v.tlb[l].lookup(page) {
						v.tlb[l].insert(page)
					}
				}
			}
		}
	}
	if len(u.Eff.Addrs) > 0 {
		lo := u.Eff.Addrs[0] >> v.cfg.PageBits
		if v.inPage(u.Eff.Addrs, lo) {
			v.lastPage, v.lastPageHot = lo, true
		} else {
			v.lastPageHot = false
		}
	}
	if misses == 0 {
		return 0
	}
	v.tlbRefills.Inc()
	if v.cfg.TLBRefillAll {
		return uint64(v.cfg.TLBRefillCycles)
	}
	return uint64(misses) * uint64(v.cfg.TLBRefillCycles) / 4
}

// Utilization is a point-in-time occupancy snapshot for profiling tools.
type Utilization struct {
	PortsBusy  int // issue ports mid-instruction
	MemInFly   int // vector memory instructions in the pipeline
	Queued     int // dispatched, waiting instructions
	SlicesWait int // slices generated but not yet accepted by the L2
}

// Snapshot reports the engine's occupancy at cycle cy.
func (v *VBox) Snapshot(cy uint64) Utilization {
	u := Utilization{
		MemInFly:   v.memInFly,
		Queued:     v.queued,
		SlicesWait: v.readSubQ.Len() + v.writeSubQ.Len(),
	}
	for _, free := range v.portFree {
		if free > cy {
			u.PortsBusy++
		}
	}
	return u
}
