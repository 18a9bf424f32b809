// Package core is the timing model of the EV8-class scalar core: an 8-wide
// out-of-order machine with the issue limits of Table 3 (peak 8 int / 4 FP
// per cycle, 2 loads + 2 stores), a write-back L1 data cache, a store queue
// draining through a write buffer, up to 64 outstanding misses, and the
// narrow Vbox interface of §3.3 — a 3-instruction dispatch bus, two scalar
// operand buses, cooperative retirement, and the DrainM barrier.
//
// The model is trace-driven (values were computed functionally at trace
// time) and dataflow-scheduled: an instruction issues when its producers
// have completed and a functional unit of its class is free. Wrong-path
// instructions are not simulated; branch mispredictions charge the
// fetch-redirect penalty, which is the first-order effect for these codes.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/l2"
	"repro/internal/metrics"
	"repro/internal/pipe"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vasm"
)

// Config sets the core's widths and structure sizes.
type Config struct {
	FetchWidth  int
	RetireWidth int
	ROBSize     int

	IntWidth   int // integer issues per cycle
	FPWidth    int // floating-point issues per cycle
	LoadWidth  int // loads per cycle
	StoreWidth int // stores per cycle

	MispredictPenalty int

	L1Bytes int
	L1Assoc int
	L1Line  int
	L1Lat   int // load-to-use on an L1 hit

	MSHRs           int // outstanding scalar misses ("at most 64 misses before stalling")
	WriteBuffer     int // write-buffer entries (lines)
	StoreForwardLat int

	DrainPenalty int // replay-trap cost after a DrainM completes

	VBusWidth int // vector instructions dispatched to the Vbox per cycle

	// Faults, when non-nil, is the chip's deterministic fault injector
	// (sim.New installs it); it can freeze the issue stage for a cycle.
	Faults *faults.Injector
}

// VectorUnit is the Vbox as the core sees it across the narrow interface.
type VectorUnit interface {
	// Dispatch hands a renamed vector instruction to the Vbox; false means
	// the Vbox queue is full this cycle.
	Dispatch(cy uint64, u *pipe.UOp) bool
	// MarkReady tells the Vbox the op's last operand arrived at cycle cy.
	MarkReady(cy uint64, u *pipe.UOp)
	// Tick advances the Vbox one cycle.
	Tick(cy uint64)
	// Busy reports in-flight Vbox work.
	Busy() bool
}

// threadState is the per-hardware-thread front-end and retirement state.
// The core is SMT-capable (§3.3: supporting the SMT paradigm was a design
// constraint the Vbox had to meet); the paper's evaluation runs one thread.
type threadState struct {
	id     uint8
	trace  *vasm.Trace
	halted bool

	// rob is the thread's reorder buffer, a ring of records sized to the
	// next power of two at or above its share of ROBSize. Fetch fills the
	// slot at the tail and retire frees the slot at the head, so a record
	// lives in its slot for its whole flight and fetch allocates nothing.
	// A slot is reused only after its op retired, and by then nothing
	// names it: Wake drained its consumers when it completed, and retire
	// removed its store-table and rename-table entries.
	rob      []pipe.UOp
	robHead  int // slot of the oldest in-flight op
	robLen   int
	robShare int // ROBSize / threads: the in-flight limit
	rename   [isa.NumFlatRegs]*pipe.UOp

	// Frontend stall state.
	fetchStallUntil uint64
	pendingRedirect *pipe.UOp // mispredicted branch awaiting resolution
	drainOp         *pipe.UOp // DrainM awaiting write-buffer purge
	nextFetch       *pipe.UOp // staged instruction (in the tail slot) that could not dispatch

	// Store queue entries awaiting disambiguation checks: maps quadword
	// address to the youngest renamed, unretired store writing it. Every
	// entry names a store in the reorder buffer, so a table of twice the
	// ring's slots is never more than half full.
	stores sched.Table[pipe.UOp]

	// addrOffset tags this thread's addresses in the shared memory
	// hierarchy (each SMT thread has its own address space; the timing
	// models must not alias them).
	addrOffset uint64
}

// Core is the scalar core model.
type Core struct {
	cfg Config
	l2  *l2.L2
	vu  VectorUnit // nil for pure-EV8 configurations
	st  *stats.Stats

	threads  []*threadState
	rrFetch  int // round-robin fetch pointer
	rrRetire int

	dispatchSeq uint64 // global age order across threads

	ready   pipe.ReadyQueue
	blocked []*pipe.UOp // ready but structurally stalled this cycle
	wheel   *sched.Wheel
	pred    *pipe.Predictor

	// completeFn is the method value of onComplete, bound once so every
	// completion event schedules without a closure allocation.
	completeFn func(uint64, any)

	intFU, fpFU, ldFU, stFU *pipe.FUPool

	// Write buffer: retired stores draining to the cache hierarchy.
	writeBuf   sched.Ring[wbEntry]
	wbInFlight int
	// wbDoneFn retires one in-flight write-buffer drain; bound once so a
	// drained store schedules its completion without a closure allocation.
	wbDoneFn func(uint64)

	l1       *l1cache
	mshr     map[uint64][]*pipe.UOp // line -> loads waiting on its fill
	mshrPref map[uint64]bool        // lines with a prefetch-only fill in flight

	// Invariant checking (nil when disabled).
	chk         *check.Checker
	lastRetSeq  uint64 // sequence number of the most recently retired op
	lastRetSite uint32 // static-site id (PC stand-in) of that op
	retCount    uint64 // retirements since checking began (paces inclusion walks)
}

type wbEntry struct {
	addr uint64
	wh64 bool
}

// New builds a core bound to an L2 and an optional vector unit that counts
// its retired operations, L1 accesses, branches and DrainM barriers in st
// and registers its occupancy gauges with reg.
func New(cfg Config, st *stats.Stats, reg *metrics.Registry, l2c *l2.L2, vu VectorUnit) *Core {
	c := &Core{
		cfg:      cfg,
		l2:       l2c,
		vu:       vu,
		st:       st,
		wheel:    new(sched.Wheel),
		pred:     pipe.NewPredictor(),
		intFU:    pipe.NewFUPool(cfg.IntWidth),
		fpFU:     pipe.NewFUPool(cfg.FPWidth),
		ldFU:     pipe.NewFUPool(cfg.LoadWidth),
		stFU:     pipe.NewFUPool(cfg.StoreWidth),
		l1:       newL1(cfg.L1Bytes, cfg.L1Assoc, cfg.L1Line),
		mshr:     make(map[uint64][]*pipe.UOp),
		mshrPref: make(map[uint64]bool),
	}
	c.completeFn = c.onComplete
	c.wbDoneFn = func(uint64) { c.wbInFlight-- }
	l2c.OnPBitInvalidate = c.invalidateL1
	// Reorder-buffer entries in flight (all threads), uops ready to issue,
	// ready uops structurally stalled this cycle, retired stores draining
	// to the cache hierarchy, and outstanding L1 miss-status registers.
	reg.RegisterGauge("core.rob", func(uint64) int { rob, _, _, _, _ := c.Depths(); return rob })
	reg.RegisterGauge("core.ready", func(uint64) int { return c.ready.Len() })
	reg.RegisterGauge("core.blocked", func(uint64) int { return len(c.blocked) })
	reg.RegisterGauge("core.writebuf", func(uint64) int { return c.writeBuf.Len() })
	reg.RegisterGauge("core.mshr", func(uint64) int { return len(c.mshr) })
	return c
}

// Bind attaches one trace per hardware thread; a single-threaded run binds
// one. Each thread gets a private address-space tag so the shared caches do
// not alias the threads' identical virtual layouts.
func (c *Core) Bind(trs []*vasm.Trace) {
	c.threads = c.threads[:0]
	share := c.cfg.ROBSize / max(len(trs), 1)
	slots := 1 << bits.Len(uint(max(share, 1)-1))
	for i, tr := range trs {
		c.threads = append(c.threads, &threadState{
			id:         uint8(i),
			trace:      tr,
			rob:        make([]pipe.UOp, slots),
			robShare:   share,
			stores:     sched.NewTable[pipe.UOp](slots),
			addrOffset: uint64(i) << 44,
		})
	}
}

// SetChecker attaches the invariant checker. The core owns the invariant
// logic (it has the microarchitectural state); the checker owns the verdict
// and the event history.
func (c *Core) SetChecker(chk *check.Checker) { c.chk = chk }

// Depths reports the core's queue occupancy for failure diagnostics.
func (c *Core) Depths() (rob, ready, blocked, writeBuf, mshr int) {
	for _, t := range c.threads {
		rob += t.robLen
	}
	return rob, c.ready.Len(), len(c.blocked), c.writeBuf.Len(), len(c.mshr)
}

// LastRetired returns the sequence number and static-site id (the PC
// stand-in) of the most recently retired instruction.
func (c *Core) LastRetired() (seq uint64, site uint32) {
	return c.lastRetSeq, c.lastRetSite
}

// Halted reports whether every thread's HALT marker has retired.
func (c *Core) Halted() bool {
	for _, t := range c.threads {
		if !t.halted {
			return false
		}
	}
	return len(c.threads) > 0
}

// Busy reports whether instructions are still in flight.
func (c *Core) Busy() bool {
	for _, t := range c.threads {
		if t.robLen > 0 {
			return true
		}
	}
	return c.writeBuf.Len() > 0 || c.wbInFlight > 0 || c.wheel.Pending()
}

// invalidateL1 services a P-bit invalidate from the L2; returns true when
// the line was dirty in the L1 (forcing a write-through).
func (c *Core) invalidateL1(line uint64) bool {
	dirty := c.l1.invalidate(line)
	return dirty
}

// Tick advances the core one cycle. Order within the cycle: completions,
// retire, issue, write-buffer drain, fetch/rename/dispatch.
func (c *Core) Tick(cy uint64) {
	c.wheel.Advance(cy)
	c.retire(cy)
	c.issue(cy)
	c.drainWriteBuffer(cy)
	c.fetch(cy)
}

// ---- retire ----

func (c *Core) retire(cy uint64) {
	retired := 0
	// Per-thread in-order retirement, round-robin across threads up to the
	// shared retire width.
	for range c.threads {
		t := c.threads[c.rrRetire%len(c.threads)]
		c.rrRetire++
		for retired < c.cfg.RetireWidth && t.robLen > 0 {
			u := &t.rob[t.robHead]
			if u.State != pipe.StateDone {
				break
			}
			in := &u.Inst
			stop := false
			switch {
			case in.Op == isa.OpHALT:
				t.halted = true
			case in.Op == isa.OpDRAINM:
				// Handled at fetch/execute; retirement is the replay point.
			case u.Info.IsStore && !u.Info.IsVector():
				// Retired stores move to the write buffer "without
				// informing either the L1 or the L2" (§3.4) and drain
				// asynchronously.
				if c.writeBuf.Len() >= c.cfg.WriteBuffer {
					stop = true // write buffer full: stall this thread
					break
				}
				if len(u.Eff.Addrs) > 0 {
					addr := u.Eff.Addrs[0]
					st := t.stores.Get(addr)
					// Store-queue consistency: the disambiguation table
					// holds the YOUNGEST in-flight store per address. The
					// retiring store is its thread's oldest in-flight op,
					// so an older mapped store means forwarding could have
					// supplied stale data to some load.
					if c.chk.Enabled() && st != nil && st.Seq < u.Seq {
						c.chk.Failf("store-queue", cy,
							"retiring store seq %d finds older store seq %d still mapped at %#x",
							u.Seq, st.Seq, addr)
					}
					c.writeBuf.Push(wbEntry{addr: addr, wh64: in.Op == isa.OpWH64})
					if st == u {
						t.stores.Del(addr)
					}
				}
			}
			if stop {
				break
			}
			c.countRetired(u)
			c.lastRetSeq, c.lastRetSite = u.Seq, u.Site
			if c.chk.Enabled() {
				c.chk.RetireInOrder(cy, int(t.id), u.Seq)
				c.retCount++
				// L1⊆L2 inclusion is a whole-cache property; walking it per
				// retirement would swamp the run, so sample every 256th.
				if c.retCount&255 == 0 {
					c.checkInclusion(cy)
				}
			}
			u.State = pipe.StateRetired
			t.robHead = (t.robHead + 1) & (len(t.rob) - 1)
			t.robLen--
			retired++
			// Free the slot: clear any rename-table entry still naming it.
			for _, r := range destRegs(in, u.Info) {
				if r.Valid() && !r.IsZero() && t.rename[r.Flat()] == u {
					t.rename[r.Flat()] = nil
				}
			}
		}
	}
}

func (c *Core) countRetired(u *pipe.UOp) {
	info, st := u.Info, c.st
	if info.IsVector() {
		st.VectorIns++
		n := uint64(u.Eff.Active)
		st.VecOps += max(n, 1)
		switch {
		case info.IsLoad || info.IsStore:
			st.MemOps += n
		case info.IsFlop:
			st.Flops += n * info.Flops()
		case info.Group == isa.GVC:
			st.OtherOps++
		default:
			st.OtherOps += n // vector integer/logical ops count as "other"
		}
		return
	}
	st.ScalarIns++
	switch {
	case info.IsLoad || info.IsStore:
		st.MemOps++
	case info.IsFlop:
		st.Flops++
	default:
		st.OtherOps++
	}
	if info.IsBranch {
		st.Branches++
	}
}

// checkInclusion validates L1 ⊆ L2: every non-prefetch scalar access marks
// its L2 line with the P-bit, and evicting a P-bit line invalidates the L1
// copy — so a valid L1 line with no L2 backing means that protocol broke.
func (c *Core) checkInclusion(cy uint64) {
	c.l1.walk(func(line uint64) bool {
		if !c.l2.Present(line) {
			c.chk.Failf("l1-inclusion", cy, "L1 holds line %#x but the L2 does not", line)
			return false
		}
		return true
	})
}

// ---- issue ----

func (c *Core) issue(cy uint64) {
	if c.cfg.Faults.StallFUs(cy) {
		return // injected issue-logic stall: every FU pool frozen this cycle
	}
	issued := 0
	budget := c.cfg.FetchWidth // total issue width (8, Table 3 "Core Issue")
	// Structurally blocked ops from earlier cycles are oldest: retry them
	// in place first (no heap churn), compacting the survivors.
	keep := c.blocked[:0]
	for _, u := range c.blocked {
		if issued < budget && c.tryIssue(cy, u) {
			issued++
		} else {
			keep = append(keep, u)
		}
	}
	c.blocked = keep
	scanned := 0
	for c.ready.Len() > 0 && issued < budget && scanned < 4*budget && len(c.blocked) < 64 {
		u := c.ready.Pop()
		scanned++
		if c.tryIssue(cy, u) {
			issued++
		} else {
			c.blocked = append(c.blocked, u)
		}
	}
}

func (c *Core) tryIssue(cy uint64, u *pipe.UOp) bool {
	info := u.Info
	switch {
	case info.IsLoad:
		return c.issueLoad(cy, u)
	case info.IsStore:
		// Stores "execute" when address and data are ready; memory is
		// touched after retirement via the write buffer.
		if !c.stFU.TryIssue(cy, 1) {
			return false
		}
		c.complete(cy+1, u)
		return true
	case info.FU == isa.FUFPAdd || info.FU == isa.FUFPMul || info.FU == isa.FUFPDiv:
		occ := 1
		if info.Unpipelined {
			occ = info.Latency
		}
		if !c.fpFU.TryIssue(cy, occ) {
			return false
		}
		c.complete(cy+uint64(info.Latency), u)
		return true
	default:
		// Integer ALU/multiplier, branches, HALT, DRAINM-as-nop.
		occ := 1
		if info.Unpipelined {
			occ = info.Latency
		}
		if !c.intFU.TryIssue(cy, occ) {
			return false
		}
		c.complete(cy+uint64(info.Latency), u)
		if info.IsBranch {
			t := c.threads[u.Inst.Thread]
			if t.pendingRedirect == u {
				// Mispredicted branch resolves: redirect this thread's
				// front end.
				t.pendingRedirect = nil
				t.fetchStallUntil = cy + uint64(info.Latency) + uint64(c.cfg.MispredictPenalty)
			}
		}
		return true
	}
}

func (c *Core) issueLoad(cy uint64, u *pipe.UOp) bool {
	if !c.ldFU.TryIssue(cy, 1) {
		return false
	}
	addr := uint64(0)
	if len(u.Eff.Addrs) > 0 {
		addr = u.Eff.Addrs[0]
	}
	// Store-to-load forwarding: an older in-flight store to the same
	// quadword supplies the data.
	if st := c.threads[u.Inst.Thread].stores.Get(addr); st != nil && st.Seq < u.Seq {
		if st.State == pipe.StateDone || st.State == pipe.StateRetired {
			c.complete(cy+uint64(c.cfg.StoreForwardLat), u)
		} else {
			// Wait for the store's data: chain on its completion.
			st.Consumers = append(st.Consumers, u)
			u.Deps++
			u.State = pipe.StateWaiting
		}
		return true
	}
	line := c.l1line(addr)
	if u.Inst.IsPrefetchWith(u.Info) {
		// Non-binding prefetch: retires immediately; the line arrives in
		// the background (dropped if the MSHRs are saturated).
		if _, pending := c.mshr[line]; !pending && !c.l1.probe(line) && len(c.mshr) < c.cfg.MSHRs {
			c.mshr[line] = nil
			c.mshrPref[line] = true
			c.l2.ScalarRead(cy, addr, func(fillCy uint64) { c.fillL1(fillCy, line) })
		}
		c.complete(cy+1, u)
		return true
	}
	if waiters, pending := c.mshr[line]; pending {
		// Miss to an already-outstanding line: attach to the MSHR.
		c.mshr[line] = append(waiters, u)
		delete(c.mshrPref, line)
		u.State = pipe.StateIssued
		return true
	}
	if c.l1.probe(line) {
		c.st.L1Hits++
		c.complete(cy+uint64(c.cfg.L1Lat), u)
		return true
	}
	// L1 miss: take an MSHR and fetch the line from the L2. The 64-entry
	// bound is the paper's "at most 64 misses before stalling".
	if len(c.mshr) >= c.cfg.MSHRs {
		return false // stall: retry next cycle
	}
	c.st.L1Misses++
	c.mshr[line] = []*pipe.UOp{u}
	c.l2.ScalarRead(cy, addr, func(fillCy uint64) { c.fillL1(fillCy, line) })
	u.State = pipe.StateIssued
	return true
}

// fillL1 installs a returned line into the L1 and completes the loads that
// slept on its MSHR entry.
func (c *Core) fillL1(cy uint64, line uint64) {
	waiters := c.mshr[line]
	delete(c.mshr, line)
	delete(c.mshrPref, line)
	if victim, dirty := c.l1.fill(line, false); dirty {
		c.l2.ScalarWrite(cy, victim, nil)
	}
	for _, u := range waiters {
		c.complete(cy+1, u)
	}
}

func (c *Core) l1line(addr uint64) uint64 { return addr &^ uint64(c.cfg.L1Line-1) }

// complete schedules u's completion at cycle cy (immediately if cy is the
// current cycle's event horizon).
func (c *Core) complete(cy uint64, u *pipe.UOp) {
	u.State = pipe.StateIssued
	c.wheel.AtCall(cy, c.completeFn, u)
}

// onComplete is the wheel callback behind complete, stored once in
// completeFn so scheduling a completion allocates nothing.
func (c *Core) onComplete(cy uint64, a any) {
	u := a.(*pipe.UOp)
	u.State = pipe.StateDone
	u.DoneCyc = cy
	c.Wake(cy, u)
}

// Wake propagates a completed producer to its consumers. It is exported for
// the Vbox, which calls it when vector instructions complete (their
// consumers may be scalar — e.g. a VEXTR feeding address arithmetic).
func (c *Core) Wake(cy uint64, u *pipe.UOp) {
	for _, cons := range u.Consumers {
		cons.Deps--
		if cons.Deps == 0 {
			cons.MarkReady(cy)
			if cons.Info.IsVector() {
				if c.vu != nil {
					c.vu.MarkReady(cy, cons)
				}
			} else {
				c.ready.Push(cons)
			}
		}
	}
	u.Consumers = u.Consumers[:0] // keep capacity for the recycled record
}

// VectorDone is the Vbox's completion callback (the VCU reporting
// instruction identifiers back to the core, §3.3).
func (c *Core) VectorDone(cy uint64, u *pipe.UOp) {
	u.State = pipe.StateDone
	u.DoneCyc = cy
	c.Wake(cy, u)
}

// ---- write buffer ----

func (c *Core) drainWriteBuffer(cy uint64) {
	if c.writeBuf.Len() == 0 {
		return
	}
	e := c.writeBuf.Pop()
	line := c.l1line(e.addr)
	switch {
	case e.wh64:
		c.wbInFlight++
		c.l2.WH64(cy, e.addr, c.wbDoneFn)
	case c.l1.probe(line):
		// Write-back L1: the store lands in the L1 and stays dirty there.
		c.l1.markDirty(line)
	default:
		c.wbInFlight++
		c.l2.ScalarWrite(cy, e.addr, c.wbDoneFn)
	}
}

// ---- fetch / rename / dispatch ----

// fetch picks one runnable thread per cycle (round-robin — the coarse
// policy is enough for the throughput questions SMT mode answers) and
// fetches up to the full width from it.
func (c *Core) fetch(cy uint64) {
	for range c.threads {
		t := c.threads[c.rrFetch%len(c.threads)]
		c.rrFetch++
		if t.trace == nil || t.halted || cy < t.fetchStallUntil || t.pendingRedirect != nil {
			continue
		}
		if t.drainOp != nil {
			// DrainM: wait until the write buffer has fully purged, then
			// pay the replay trap and resume.
			if c.writeBuf.Len() == 0 && c.wbInFlight == 0 {
				c.complete(cy+1, t.drainOp)
				t.drainOp = nil
				t.fetchStallUntil = cy + uint64(c.cfg.DrainPenalty)
			}
			continue
		}
		c.fetchThread(cy, t)
		return
	}
}

func (c *Core) fetchThread(cy uint64, t *threadState) {
	vdispatched := 0
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if t.robLen >= t.robShare {
			return
		}
		u := t.nextFetch
		t.nextFetch = nil
		if u == nil {
			d := t.trace.Next()
			if d == nil {
				return
			}
			u = &t.rob[(t.robHead+t.robLen)&(len(t.rob)-1)]
			c.dispatchSeq++
			u.Fill(c.dispatchSeq, d.Site, &d.Inst, &d.Eff, cy)
			u.Inst.Thread = t.id
			if t.addrOffset != 0 && len(u.Eff.Addrs) > 0 {
				// Tag this thread's addresses so the shared memory
				// hierarchy does not alias the threads' address spaces.
				addrs := make([]uint64, len(u.Eff.Addrs))
				for i, a := range u.Eff.Addrs {
					addrs[i] = a + t.addrOffset
				}
				u.Eff.Addrs = addrs
				u.Eff.Base += t.addrOffset
			}
		}
		if u.Info.IsVector() {
			if c.vu == nil {
				panic(fmt.Sprintf("core: vector instruction %s on a configuration without a Vbox", &u.Inst))
			}
			if vdispatched >= c.cfg.VBusWidth || !c.vu.Dispatch(cy, u) {
				t.nextFetch = u // bus saturated or Vbox queue full
				return
			}
			vdispatched++
		}
		c.renameOp(cy, t, u)
		t.robLen++

		switch {
		case u.Info.IsBranch:
			if c.pred.Predict(u.Site^(uint32(t.id)<<28), u.Eff.Taken) {
				c.st.BranchMispredicts++
				t.pendingRedirect = u
				c.finishRename(cy, u)
				return // no fetch past a mispredicted branch
			}
		case u.Inst.Op == isa.OpDRAINM:
			c.st.DrainMs++
			t.drainOp = u
			c.finishRename(cy, u)
			return
		}
		c.finishRename(cy, u)
	}
}

// renameOp links u's dataflow sources against its thread's rename table.
func (c *Core) renameOp(cy uint64, t *threadState, u *pipe.UOp) {
	for _, r := range sourceRegs(&u.Inst, u.Info) {
		if !r.Valid() || r.IsZero() {
			continue
		}
		if prod := t.rename[r.Flat()]; prod != nil &&
			prod.State != pipe.StateDone && prod.State != pipe.StateRetired {
			prod.Consumers = append(prod.Consumers, u)
			u.Deps++
		}
	}
	for _, r := range destRegs(&u.Inst, u.Info) {
		if r.Valid() && !r.IsZero() {
			t.rename[r.Flat()] = u
		}
	}
	if u.Info.IsStore && !u.Info.IsVector() && len(u.Eff.Addrs) > 0 {
		t.stores.Set(u.Eff.Addrs[0], u)
	}
}

// finishRename queues the op for issue once its dependence count is known.
func (c *Core) finishRename(cy uint64, u *pipe.UOp) {
	if u.Inst.Op == isa.OpDRAINM {
		return // completes via the drain state machine
	}
	if u.Deps == 0 {
		u.MarkReady(cy)
		if u.Info.IsVector() {
			c.vu.MarkReady(cy, u)
		} else {
			c.ready.Push(u)
		}
	} else {
		u.State = pipe.StateWaiting
	}
}

// sourceRegs lists the architectural registers an instruction reads,
// including the implicit vector control registers (vl for every vector
// operation, vs for strided memory, vm for masked execution — the reason
// the Vbox renames vm, §2). info is in's opcode metadata. The fixed-size
// return avoids a per-instruction allocation on the hottest path.
func sourceRegs(in *isa.Inst, info *isa.Info) [6]isa.Reg {
	var out [6]isa.Reg
	n := 0
	add := func(r isa.Reg) {
		if r.Valid() {
			out[n] = r
			n++
		}
	}
	switch info.Group {
	case isa.GScalar:
		add(in.Src1)
		add(in.Src2)
	case isa.GVV, isa.GVS:
		add(in.Src1)
		add(in.Src2)
		add(isa.VL)
		if in.Masked || in.Op == isa.OpVMERG {
			add(isa.VM)
			add(in.Dst) // partial write: old destination merges through
		} else if in.Op == isa.OpVFMAT || in.Op == isa.OpVSFMAT {
			add(in.Dst) // the destination is the accumulator
		}
	case isa.GSM:
		add(in.Src1) // store data
		add(in.Src2) // base
		add(isa.VL)
		add(isa.VS)
		if in.Masked {
			add(isa.VM)
			if info.IsLoad {
				add(in.Dst)
			}
		}
	case isa.GRM:
		add(in.Src1)
		add(in.Src2)
		add(in.Idx)
		add(isa.VL)
		if in.Masked {
			add(isa.VM)
			if info.IsLoad {
				add(in.Dst)
			}
		}
	case isa.GVC:
		add(in.Src1)
		add(in.Src2)
		if in.Op == isa.OpVINS {
			add(in.Dst)
		}
	}
	return out
}

// destRegs lists the architectural registers an instruction writes; info is
// its opcode metadata.
func destRegs(in *isa.Inst, info *isa.Info) [1]isa.Reg {
	switch in.Op {
	case isa.OpSETVL:
		return [1]isa.Reg{isa.VL}
	case isa.OpSETVS:
		return [1]isa.Reg{isa.VS}
	case isa.OpSETVM, isa.OpVCLRM:
		return [1]isa.Reg{isa.VM}
	}
	if info.IsStore || info.IsBranch {
		return [1]isa.Reg{}
	}
	return [1]isa.Reg{in.Dst}
}

// ResetHalt re-arms the core after a HALT so another trace phase can run on
// the same machine state (used for warmup-then-measure experiments).
func (c *Core) ResetHalt() {
	for _, t := range c.threads {
		t.halted = false
	}
}
