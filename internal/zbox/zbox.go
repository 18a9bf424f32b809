// Package zbox models Tarantula's memory controller: eight ports of RAMBUS
// channels (§3.1), with the effects that determine Table 4 — per-port
// occupancy, open-row (RDRAM page) tracking with activate/precharge costs,
// read↔write turnaround penalties, and directory-update transactions that
// consume raw bandwidth without moving useful data.
//
// All timing is expressed in CPU cycles; the sim package derives the
// constants from each configuration's CPU:RAMBUS frequency ratio, which is
// how the frequency-scaling study (Figure 8) changes memory behaviour.
package zbox

import (
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Kind is the transaction type.
type Kind uint8

const (
	// Read moves a 64-byte line from memory.
	Read Kind = iota
	// Write moves a 64-byte line to memory (victim writeback).
	Write
	// DirOp is a directory state transition (e.g. the Invalid→Dirty
	// transition a WH64 performs, §6). It occupies the port like a line
	// transfer, which reproduces the paper's "1/3 of raw bandwidth is
	// directory updates" accounting for the copy loop.
	DirOp
)

// Config sets the controller's timing, in CPU cycles.
type Config struct {
	Ports          int    // independent RAMBUS ports (8 on Tarantula, 2 on EV8)
	LineCycles     int    // port occupancy of one 64-byte transaction
	BaseLatency    int    // access latency beyond queuing/occupancy
	RowBytes       uint64 // RDRAM page size tracked per device
	DevicesPerPort int    // open-row trackers per port
	RowMissCycles  int    // activate+precharge cost on a row miss
	TurnCycles     int    // penalty when a port switches read↔write

	// Faults, when non-nil, adds deterministic occupancy jitter per
	// transaction (sim.New installs the chip's injector).
	Faults *faults.Injector
}

type request struct {
	addr uint64
	kind Kind
	done func(cycle uint64)
}

type port struct {
	queue     sched.Ring[request]
	busyUntil uint64
	lastKind  Kind
	openRow   []uint64 // per device; ^0 = closed
}

// Zbox is the memory controller model.
type Zbox struct {
	cfg   Config
	ports []*port
	wheel *sched.Wheel

	// Registered counter handles (zbox.* namespace).
	reads, writes, dirOps metrics.Counter
	rowActivates, rowHits metrics.Counter
	turnarounds           metrics.Counter
}

// New returns a controller with the given configuration, registering its
// counters and queue-depth gauge under the registry's zbox namespace.
func New(cfg Config, reg *metrics.Registry) *Zbox {
	z := &Zbox{cfg: cfg, wheel: sched.NewWheel()}
	for i := 0; i < cfg.Ports; i++ {
		p := &port{openRow: make([]uint64, cfg.DevicesPerPort)}
		for j := range p.openRow {
			p.openRow[j] = ^uint64(0)
		}
		z.ports = append(z.ports, p)
	}
	m := reg.Scope("zbox")
	z.reads = m.Counter("reads")
	z.writes = m.Counter("writes")
	z.dirOps = m.Counter("dir_ops")
	z.rowActivates = m.Counter("row_activates")
	z.rowHits = m.Counter("row_hits")
	z.turnarounds = m.Counter("turnarounds")
	m.Gauge("queue", "Queued (not yet started) memory transactions.",
		func(uint64) int { return z.QueueDepth() })
	return z
}

// Request enqueues a transaction for the line containing addr. done is
// called with the cycle at which the transaction's data is available (reads)
// or durably accepted (writes/directory ops). Lines interleave across ports
// by address bits just above the line offset.
func (z *Zbox) Request(addr uint64, kind Kind, done func(cycle uint64)) {
	p := z.ports[int(addr>>6)%len(z.ports)]
	p.queue.Push(request{addr: addr, kind: kind, done: done})
}

// Busy reports whether any transactions are queued, in flight, or have
// undelivered completions.
func (z *Zbox) Busy() bool {
	if z.wheel.Pending() {
		return true
	}
	for _, p := range z.ports {
		if p.queue.Len() > 0 {
			return true
		}
	}
	return false
}

// Tick advances the controller to cycle c: delivers due completions and
// starts at most one new transaction per idle port.
func (z *Zbox) Tick(c uint64) {
	z.wheel.Advance(c)
	for pi, p := range z.ports {
		if p.busyUntil > c || p.queue.Len() == 0 {
			continue
		}
		req := p.queue.Pop()
		occ := z.cfg.LineCycles

		// Open-row model: sequential streams stay within a page and pay
		// the activate cost once; random traffic (RndMemScale) reopens
		// pages constantly.
		dev := int(req.addr/z.cfg.RowBytes) % z.cfg.DevicesPerPort
		row := req.addr / z.cfg.RowBytes
		if p.openRow[dev] != row {
			p.openRow[dev] = row
			occ += z.cfg.RowMissCycles
			z.rowActivates.Inc()
		} else {
			z.rowHits.Inc()
		}

		// Read↔write turnaround: the bus direction change costs dead
		// cycles (the effect that caps STREAMS copy at ~90% of the
		// post-directory peak, §6).
		if req.kind != p.lastKind && (req.kind == Write) != (p.lastKind == Write) {
			occ += z.cfg.TurnCycles
			z.turnarounds.Inc()
		}
		p.lastKind = req.kind

		// Injected RAMBUS timing noise (deterministic per port and cycle).
		occ += int(z.cfg.Faults.MemLatency(pi, c))

		p.busyUntil = c + uint64(occ)
		switch req.kind {
		case Read:
			z.reads.Inc()
		case Write:
			z.writes.Inc()
		case DirOp:
			z.dirOps.Inc()
		}
		if req.done != nil {
			z.wheel.AtCall(c+uint64(occ)+uint64(z.cfg.BaseLatency), callDone, req.done)
		}
	}
}

// callDone invokes a stored completion callback with the fired cycle,
// allocation-free (see the l2 package's twin).
func callDone(cy uint64, a any) { a.(func(uint64))(cy) }

// QueueDepth returns the total number of queued (not yet started)
// transactions, used by tests and by the L2's backpressure heuristics.
func (z *Zbox) QueueDepth() int {
	n := 0
	for _, p := range z.ports {
		n += p.queue.Len()
	}
	return n
}
