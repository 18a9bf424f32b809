// Package faults is the simulator's deterministic fault-injection harness.
// It exists to prove a negative: that the timing model's safety nets — the
// retirement watchdog and the post-HALT drain loop — degrade gracefully
// under perturbation instead of hanging the process or silently corrupting
// statistics.
//
// Every decision is a pure function of (seed, cycle, stream): the injector
// carries no mutable state, so the same seed reproduces the same fault
// pattern regardless of how many times a hook is consulted or in which
// order components tick. That purity is what makes "same seed, same Stats"
// a testable contract.
package faults

import (
	"hash/fnv"
	"sync/atomic"
	"time"
)

// Config describes one fault campaign. The zero value injects nothing.
type Config struct {
	// Seed selects the deterministic perturbation pattern.
	Seed int64

	// MemJitter adds 0..MemJitter extra occupancy cycles to each memory
	// controller transaction (RAMBUS timing noise).
	MemJitter int

	// L2Jitter adds 0..L2Jitter extra cycles to each L2 response latency.
	L2Jitter int

	// FUStallPct freezes every core functional-unit pool for a cycle with
	// the given percent probability (transient issue-logic stalls).
	FUStallPct int

	// VPortStallPct freezes the Vbox issue ports for a cycle with the given
	// percent probability.
	VPortStallPct int

	// StallStormFrom, when non-zero, permanently stalls every core FU pool
	// from that cycle on: the machine is guaranteed to wedge, and the
	// watchdog must convert the wedge into a WedgeError instead of a hang.
	StallStormFrom uint64

	// WorkerKill arms the out-of-process fault drill: the subprocess
	// execution backend SIGKILLs the worker of every targeted cell mid-job,
	// on the job's first attempt only. The server-visible contract under
	// test is that the job still completes — retried on another worker —
	// and the service itself never notices beyond a retry counter. The
	// in-process backend ignores the flag (there is no process to kill).
	WorkerKill bool

	// WorkerKillStorm escalates the drill into a storm: targeted cells'
	// workers are SIGKILLed on every attempt below the value, so a storm
	// deeper than the retry budget deterministically exhausts it. The
	// contract under test shifts from "the retry recovers" to "the server
	// sheds with a structured worker_crash envelope and quarantines the
	// poisoned confhash instead of retry-looping the fleet to death".
	WorkerKillStorm int

	// DiskErrPct injects I/O errors into the disk result store with the
	// given percent probability per read or write. A failed write costs
	// durability for that one artifact (the miss re-simulates); a failed
	// read is a transient miss. Neither may corrupt the store or hang a
	// request.
	DiskErrPct int

	// DiskTornPct, per store write, persists a torn artifact — a prefix of
	// the real bytes at the final path, modeling a crash that beat the
	// atomic-rename protocol (power loss between rename and data flush).
	// The store's corruption-tolerant loader must quarantine the file on
	// the next read instead of serving it or crashing.
	DiskTornPct int

	// Cells, when non-empty, restricts a sweep-level campaign to these
	// exact (benchmark@config) keys. When empty, Targets selects a seeded
	// pseudo-random subset of cells instead.
	Cells []string
}

// Targets reports whether a sweep cell (keyed "bench@config") is under
// attack in this campaign. With an explicit Cells list the match is exact;
// otherwise roughly one cell in four is selected, deterministically from
// the seed, so a fault drill always hits a reproducible subset.
func (c *Config) Targets(key string) bool {
	if c == nil {
		return false
	}
	if len(c.Cells) > 0 {
		for _, k := range c.Cells {
			if k == key {
				return true
			}
		}
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return splitmix64(uint64(c.Seed)^h.Sum64())%4 == 0
}

// Jitter is the canned single-run campaign (tarsim -faults): latency noise
// on the memory system plus transient issue stalls. Runs complete — slower
// and with different counters, but without wedging.
func Jitter(seed int64) *Config {
	return &Config{Seed: seed, MemJitter: 24, L2Jitter: 12, FUStallPct: 5, VPortStallPct: 5}
}

// Storm is the canned sweep campaign (tartables -faults): targeted cells
// have every core FU pool frozen from cycle `from` on, guaranteeing a wedge
// the per-cell hardening must report as an error row.
func Storm(seed int64, from uint64) *Config {
	if from == 0 {
		from = 100_000
	}
	return &Config{Seed: seed, StallStormFrom: from}
}

// WorkerKiller is the canned out-of-process campaign (tarserved
// -kill-worker): SIGKILL the subprocess worker of each listed cell mid-job,
// first attempt only. No timing perturbation — the fault is the process
// death itself.
func WorkerKiller(cells ...string) *Config {
	return &Config{WorkerKill: true, Cells: cells}
}

// KillStorm is the canned worker-kill storm (tarserved -chaos storm):
// targeted cells' workers are SIGKILLed on every attempt below depth. With
// depth within the retry budget the job survives the storm; past it the
// server must shed with worker_crash and poison the confhash.
func KillStorm(seed int64, depth int, cells ...string) *Config {
	if depth <= 0 {
		depth = 2
	}
	return &Config{Seed: seed, WorkerKillStorm: depth, Cells: cells}
}

// DiskChaos is the canned disk-store campaign (tarserved -chaos disk): one
// in four store operations fails with an injected I/O error and one in four
// writes lands torn. The store must quarantine what it cannot decode, miss
// on what it cannot read, and never serve a corrupt artifact.
func DiskChaos(seed int64) *Config {
	return &Config{Seed: seed, DiskErrPct: 25, DiskTornPct: 25}
}

// Injector is the per-chip view of a Config. A nil *Injector is valid and
// injects nothing, so components call the hooks unconditionally.
//
// Simulation hooks stay pure functions of (seed, cycle, stream). The
// service-layer hooks (disk faults) have no simulated cycle to key on, so
// they draw from a per-injector operation counter instead: the decision
// sequence is deterministic for a given seed and serial operation order,
// which is the strongest reproducibility a concurrent service can offer.
type Injector struct {
	cfg Config
	opN atomic.Uint64
}

// New returns an injector for cfg, or nil when cfg is nil (no faults).
func New(cfg *Config) *Injector {
	if cfg == nil {
		return nil
	}
	return &Injector{cfg: *cfg}
}

// Streams namespace the hash so the same cycle rolls independently per hook.
const (
	streamMem      uint64 = 0x9e3779b97f4a7c15
	streamL2       uint64 = 0xd1b54a32d192ed03
	streamFU       uint64 = 0x8cb92ba72f3d8dd7
	streamVPort    uint64 = 0xaef17502108ef2d9
	streamDiskRead uint64 = 0xc6a4a7935bd1e995
	streamDiskWr   uint64 = 0xff51afd7ed558ccd
	streamDiskTorn uint64 = 0xc4ceb9fe1a85ec53
)

// splitmix64 is the standard 64-bit finalizer; one application is enough to
// decorrelate consecutive cycles.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns the deterministic 64-bit draw for (seed, stream, cy, lane).
func (i *Injector) roll(stream, cy, lane uint64) uint64 {
	return splitmix64(uint64(i.cfg.Seed) ^ stream ^ splitmix64(cy*0x2545f4914f6cdd1d+lane))
}

// MemLatency returns the extra occupancy cycles for a memory transaction
// starting at cycle cy on the given controller port.
func (i *Injector) MemLatency(port int, cy uint64) uint64 {
	if i == nil || i.cfg.MemJitter <= 0 {
		return 0
	}
	return i.roll(streamMem, cy, uint64(port)) % uint64(i.cfg.MemJitter+1)
}

// L2Latency returns the extra response cycles for an L2 lookup at cycle cy.
func (i *Injector) L2Latency(cy uint64) uint64 {
	if i == nil || i.cfg.L2Jitter <= 0 {
		return 0
	}
	return i.roll(streamL2, cy, 0) % uint64(i.cfg.L2Jitter+1)
}

// StallFUs reports whether every core functional-unit pool is frozen at
// cycle cy (transient stall or permanent storm).
func (i *Injector) StallFUs(cy uint64) bool {
	if i == nil {
		return false
	}
	if i.cfg.StallStormFrom > 0 && cy >= i.cfg.StallStormFrom {
		return true
	}
	if i.cfg.FUStallPct <= 0 {
		return false
	}
	return i.roll(streamFU, cy, 0)%100 < uint64(i.cfg.FUStallPct)
}

// StallVPorts reports whether the Vbox issue ports are frozen at cycle cy.
func (i *Injector) StallVPorts(cy uint64) bool {
	if i == nil || i.cfg.VPortStallPct <= 0 {
		return false
	}
	return i.roll(streamVPort, cy, 0)%100 < uint64(i.cfg.VPortStallPct)
}

// KillWorker reports whether the subprocess backend should SIGKILL the
// worker executing the given cell on this attempt (0-based). The plain
// drill (WorkerKill) fires on the first attempt only, so the retried job
// always completes — it proves recovery, not permanent denial. A storm
// (WorkerKillStorm) fires on every attempt below its depth, so a storm
// deeper than the retry budget proves the shed-and-quarantine path instead.
func (i *Injector) KillWorker(key string, attempt int) bool {
	if i == nil || !i.cfg.Targets(key) {
		return false
	}
	if i.cfg.WorkerKillStorm > 0 && attempt < i.cfg.WorkerKillStorm {
		return true
	}
	return i.cfg.WorkerKill && attempt == 0
}

// serviceRoll draws the next decision for a service-layer stream: the op
// counter substitutes for the simulated cycle the disk has no notion of.
func (i *Injector) serviceRoll(stream uint64) uint64 {
	return i.roll(stream, i.opN.Add(1), 0)
}

// DiskReadError reports whether this disk-store read should fail with an
// injected I/O error (a transient miss; the entry itself stays intact).
func (i *Injector) DiskReadError() bool {
	if i == nil || i.cfg.DiskErrPct <= 0 {
		return false
	}
	return i.serviceRoll(streamDiskRead)%100 < uint64(i.cfg.DiskErrPct)
}

// DiskWriteError reports whether this disk-store write should fail with an
// injected I/O error (the artifact loses durability; nothing is persisted).
func (i *Injector) DiskWriteError() bool {
	if i == nil || i.cfg.DiskErrPct <= 0 {
		return false
	}
	return i.serviceRoll(streamDiskWr)%100 < uint64(i.cfg.DiskErrPct)
}

// TornWrite reports whether this disk-store write should persist only a
// prefix of the artifact at its final path — the crash-beat-the-rename
// corruption the store's loader must quarantine rather than serve.
func (i *Injector) TornWrite() bool {
	if i == nil || i.cfg.DiskTornPct <= 0 {
		return false
	}
	return i.serviceRoll(streamDiskTorn)%100 < uint64(i.cfg.DiskTornPct)
}

// Active reports whether the injector perturbs anything at all.
func (i *Injector) Active() bool { return i != nil }

// String summarises the campaign for log lines and error rows.
func (i *Injector) String() string {
	if i == nil {
		return "faults: off"
	}
	return "faults: seeded campaign"
}

// Deadline is a small helper shared by the run harnesses: zero means no
// deadline, anything else converts to an absolute wall-clock instant.
func Deadline(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}
