// Package creorder implements Tarantula's conflict-free vector address
// generation (§3.4): the address reordering scheme that lets a strided
// vector instruction read sixteen independent cache lines per cycle from the
// sixteen L2 banks, the PUMP slice generation for stride-1, and the CR
// (conflict resolution) box that packs gather/scatter and self-conflicting
// strides into bank-conflict-free slices.
//
// The unit of the whole vector memory pipeline is the slice: a group of up
// to 16 addresses that are pairwise L2-bank conflict-free (address bits
// <9:6>) and register-lane conflict-free (element index mod 16), so the 16
// banks can be cycled in parallel and each lane accepts at most one quadword
// per cycle.
package creorder

import (
	"sync"

	"repro/internal/isa"
)

// NumBanks is the number of L2 banks cycled in parallel.
const NumBanks = 16

// LineBytes is the L2 cache line size.
const LineBytes = 64

// BankOf returns the L2 bank of addr: address bits <9:6>, exactly as the CR
// box description in §3.4 states.
//
// With this mapping, a counting argument shows the per-bank element count of
// a 128-element access with stride σ·2^s quadwords (σ odd) is exactly 8 for
// every s ≤ 3 and every base — each lane also holds exactly 8 elements, so
// the lane→bank multigraph is 8-regular and decomposes into 8 perfect
// matchings (König), which is the paper's 8-slice theorem. For s = 4 the
// elements collapse onto 8 banks (16 per bank) and no 8-group schedule can
// exist, so we place the self-conflicting boundary at s ≥ 4. (The scanned
// text reads "s LS 4" for the theorem and "s > 4" for self-conflicting
// strides; under the stated <9:6> bank mapping only s < 4 is feasible, and
// we follow the math.)
func BankOf(addr uint64) int { return int(addr>>6) & (NumBanks - 1) }

// LaneOf returns the Vbox lane holding element i of a vector register.
func LaneOf(elem int) int { return elem & (isa.NumLanes - 1) }

// Elem is one address within a slice.
type Elem struct {
	Index int    // element index within the vector instruction (0..127)
	Addr  uint64 // quadword address (or line address for pump slices)
}

// Slice is a group of bank- and lane-conflict-free addresses, tagged when it
// is created in the address generators and tracked by that tag through the
// memory pipeline (§3.4).
type Slice struct {
	Tag   int
	Pump  bool   // stride-1 double-bandwidth slice: Elems are line addresses
	Elems []Elem // ≤16 entries; entries may be missing (vl<128 or masked)

	// QWords is the number of data quadwords the slice moves (for pump
	// slices this can be up to 128; for normal slices it equals len(Elems)).
	QWords int
}

// Mode says which address-generation path an access took.
type Mode uint8

const (
	// ModePump is stride-1 double-bandwidth mode: 16 full cache lines per
	// slice, streamed at 2 qw/cycle/bank through the PUMP registers.
	ModePump Mode = iota
	// ModeReorder is the conflict-free reordering scheme for strides
	// σ·2^s quadwords, σ odd, s ≤ 4.
	ModeReorder
	// ModeCR routes addresses through the conflict-resolution box:
	// gather/scatter and self-conflicting strides (s > 4), or degenerate
	// strides the reordering theorem does not cover.
	ModeCR
)

func (m Mode) String() string {
	switch m {
	case ModePump:
		return "pump"
	case ModeReorder:
		return "reorder"
	case ModeCR:
		return "crbox"
	}
	return "mode?"
}

// ClassifyStride decides the path for a strided access with the given byte
// stride. Quadword strides q = σ·2^s with σ odd: q == 1 pumps; s ≤ 3
// reorders conflict-free; s ≥ 4 is self-conflicting and goes through the CR
// box, as do sub-quadword or zero strides (see BankOf for why the boundary
// sits at 4).
func ClassifyStride(strideBytes int64) Mode {
	if strideBytes == 8 {
		return ModePump
	}
	if strideBytes == 0 || strideBytes%8 != 0 {
		return ModeCR
	}
	q := strideBytes / 8
	if q < 0 {
		q = -q
	}
	s := 0
	for q%2 == 0 {
		q /= 2
		s++
	}
	if s >= 4 {
		return ModeCR
	}
	return ModeReorder
}

// scheduleROM memoises full-128-element schedules — the software analogue
// of the paper's 2.1 KB ROM distributed across the lanes. Element i's bank
// is bits <9:6> of base + i·stride, so the bank pattern, and with it the
// schedule, depends only on base and stride modulo 1 KiB: the ROM is keyed
// by that pair. A plain map behind a mutex keeps the lookup free of
// allocations (a sync.Map boxes its key); the parallel sweep runner and the
// server schedule from several goroutines at once.
var scheduleROM struct {
	sync.Mutex
	m map[uint32][][]int // romKey -> element index groups
}

// romKey packs base and stride modulo 1 KiB into one map key.
func romKey(base uint64, strideBytes int64) uint32 {
	return uint32(base%1024)<<10 | uint32(uint64(strideBytes)%1024)
}

// romSchedule returns the memoised schedule of a reorderable access,
// computing and storing it on first use.
func romSchedule(base uint64, strideBytes int64) [][]int {
	key := romKey(base, strideBytes)
	scheduleROM.Lock()
	sched, ok := scheduleROM.m[key]
	scheduleROM.Unlock()
	if ok {
		return sched
	}
	sched = computeSchedule(base, strideBytes)
	scheduleROM.Lock()
	if scheduleROM.m == nil {
		scheduleROM.m = make(map[uint32][][]int)
	}
	scheduleROM.m[key] = sched
	scheduleROM.Unlock()
	return sched
}

// ScheduleStrided partitions the active elements of a strided access into
// conflict-free slices. base is the address of element 0, strideBytes the
// byte distance between elements, and active[i] says whether element i
// participates (vl and mask applied by the caller). The tag numbering starts
// at tag0.
//
// The returned mode tells the caller which pipeline treatment (and timing)
// applies. For ModeReorder the slice count is at most 8 for any σ odd,
// s ≤ 4 — the property the paper proves and our tests check. For ModePump
// the slices carry whole-line addresses. ModeCR is handled by the caller via
// a CRBox (the address stream must be merged with scatter data availability
// there), so this function never returns ModeCR slices itself.
func ScheduleStrided(base uint64, strideBytes int64, active []bool, tag0 int) ([]Slice, Mode) {
	mode := ClassifyStride(strideBytes)
	switch mode {
	case ModePump:
		return pumpSlices(base, active, tag0), ModePump
	case ModeReorder:
		return reorderSlices(base, strideBytes, active, tag0), ModeReorder
	default:
		return nil, ModeCR
	}
}

// pumpSlices builds stride-1 double-bandwidth slices: the 128 quadwords of
// an aligned stride-1 access live in exactly 16 lines, one per bank; the
// address generators emit the 16 line addresses and set the pump bit. A
// misaligned base touches 17 lines and is forced to generate two pump
// slices (§3.4 footnote).
func pumpSlices(base uint64, active []bool, tag0 int) []Slice {
	// A stride-1 access's line addresses never decrease, so an element
	// either lands in the previous element's line or opens the next one.
	elems := make([]Elem, 0, (len(active)+7)/8+1)
	var qw [isa.VLMax/8 + 1]int
	lineQW := qw[:0] // quadwords per line
	for i, act := range active {
		if !act {
			continue
		}
		la := (base + uint64(i)*8) &^ (LineBytes - 1)
		if n := len(elems); n == 0 || elems[n-1].Addr != la {
			elems = append(elems, Elem{Index: n, Addr: la})
			lineQW = append(lineQW, 0)
		}
		lineQW[len(lineQW)-1]++
	}
	if len(elems) == 0 {
		return nil
	}
	// Split at 1 KiB block boundaries: a block holds one line per bank, so
	// each pump slice is conflict-free. An aligned 128-element access is
	// one slice; a misaligned base straddles a block boundary and is forced
	// to generate two slices, both with the pump bit set (§3.4 footnote 3).
	out := make([]Slice, 0, 2)
	block := func(a uint64) uint64 { return a >> 10 }
	for start := 0; start < len(elems); {
		end := start + 1
		for end < len(elems) && end-start < NumBanks && block(elems[end].Addr) == block(elems[start].Addr) {
			end++
		}
		s := Slice{Tag: tag0 + len(out), Pump: true, Elems: elems[start:end:end]}
		for _, q := range lineQW[start:end] {
			s.QWords += q
		}
		out = append(out, s)
		start = end
	}
	return out
}

// reorderSlices implements the conflict-free reordering scheme. The full
// 128-element schedule is computed once per (base, stride) bank pattern via
// bipartite matching and memoised (the "ROM"); the vl/mask filter is
// applied on the way out, so short or masked vectors still follow the
// full-vector requesting order — which is why they still pay all eight
// address-generation cycles (§3.4). Every slice's elements share one
// backing array, cut with full slice expressions so none can grow into
// its neighbour.
func reorderSlices(base uint64, strideBytes int64, active []bool, tag0 int) []Slice {
	sched := romSchedule(base, strideBytes)
	n := 0
	for _, act := range active[:min(len(active), isa.VLMax)] {
		if act {
			n++
		}
	}
	elems := make([]Elem, 0, n)
	out := make([]Slice, len(sched))
	for g, group := range sched {
		start := len(elems)
		for _, idx := range group {
			if idx < len(active) && active[idx] {
				elems = append(elems, Elem{Index: idx, Addr: base + uint64(int64(idx)*strideBytes)})
			}
		}
		// Empty groups still exist in the requesting order but produce no
		// L2 traffic; the Vbox timing charges the address-generation cycle
		// regardless, so we emit the (possibly empty) slice.
		out[g] = Slice{Tag: tag0 + g, Elems: elems[start:len(elems):len(elems)], QWords: len(elems) - start}
	}
	return out
}

// computeSchedule partitions element indices 0..127 into groups that are
// bank- and lane-conflict-free, using a maximum bipartite matching
// (lane → bank) per group. For valid strides (σ odd, s ≤ 4) eight groups
// always suffice; the matching construction is our stand-in for the closed
// form behind the paper's ROM contents.
func computeSchedule(base uint64, strideBytes int64) [][]int {
	remaining := make([]bool, isa.VLMax)
	left := isa.VLMax
	for i := range remaining {
		remaining[i] = true
	}
	bank := func(i int) int { return BankOf(base + uint64(int64(i)*strideBytes)) }

	var groups [][]int
	for left > 0 && len(groups) < isa.VLMax {
		// candidates[lane][bank] = smallest remaining element index for
		// that (lane, bank) pair, or -1.
		var cand [isa.NumLanes][NumBanks]int
		for l := range cand {
			for b := range cand[l] {
				cand[l][b] = -1
			}
		}
		for i := 0; i < isa.VLMax; i++ {
			if !remaining[i] {
				continue
			}
			l, b := LaneOf(i), bank(i)
			if cand[l][b] == -1 {
				cand[l][b] = i
			}
		}
		// Maximum matching lanes → banks (augmenting paths).
		matchBank := [NumBanks]int{}
		for b := range matchBank {
			matchBank[b] = -1
		}
		var try func(l int, seen *[NumBanks]bool) bool
		try = func(l int, seen *[NumBanks]bool) bool {
			for b := 0; b < NumBanks; b++ {
				if cand[l][b] == -1 || seen[b] {
					continue
				}
				seen[b] = true
				if matchBank[b] == -1 || try(matchBank[b], seen) {
					matchBank[b] = l
					return true
				}
			}
			return false
		}
		for l := 0; l < isa.NumLanes; l++ {
			var seen [NumBanks]bool
			try(l, &seen)
		}
		var group []int
		for b := 0; b < NumBanks; b++ {
			if matchBank[b] == -1 {
				continue
			}
			i := cand[matchBank[b]][b]
			group = append(group, i)
			remaining[i] = false
			left--
		}
		if len(group) == 0 {
			// No progress is impossible while elements remain (every
			// element is a 1-edge matching), but guard anyway.
			break
		}
		groups = append(groups, group)
	}
	return groups
}

// ScheduleStridedNoPump is the Figure 9 ablation path: with the PUMP
// disabled, stride-1 accesses lose double-bandwidth mode and are treated as
// ordinary reorderable strides — eight slices of sixteen quadwords instead
// of one pump slice, which also multiplies MAF pressure by 8 on misses
// (§6, "Stride-1 Double Bandwidth mode").
func ScheduleStridedNoPump(base uint64, strideBytes int64, active []bool, tag0 int) ([]Slice, Mode) {
	if ClassifyStride(strideBytes) == ModePump {
		return reorderSlices(base, strideBytes, active, tag0), ModeReorder
	}
	return ScheduleStrided(base, strideBytes, active, tag0)
}
