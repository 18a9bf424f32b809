// Package stats collects the counters the evaluation section reports:
// operations per cycle split into flops / memory ops / other (Figure 6),
// bandwidth in the STREAMS convention versus raw including directory
// traffic (Table 4), and the per-component event counts that explain them.
package stats

import (
	"fmt"
	"math"
	"reflect"
	"strings"
)

// Stats is the chip's one counter set. sim.New allocates one block per chip
// and hands it to every component, which increments its fields in place;
// ROI deltas (Sub), the evaluation tables, snapshots (SaveState) and every
// result encoding read the same block.
//
// Every field is a uint64 counter: Sub, SaveState and the tests walk the
// struct by reflection, so a new counter needs only its field, its Table
// row and its increment, plus a snapshot.SchemaVersion bump for the
// longer snapshot section.
type Stats struct {
	Cycles uint64 // simulated cycles inside timed regions

	// Retired operation counts at element granularity, the unit of
	// Figure 6 (a vl=128 vector add retires 128 operations).
	Flops     uint64 // floating-point operations (FPC numerator)
	MemOps    uint64 // memory operations, element granularity (MPC numerator)
	OtherOps  uint64 // integer/scalar/control (Other numerator)
	ScalarIns uint64 // retired scalar instructions
	VectorIns uint64 // retired vector instructions
	VecOps    uint64 // element operations retired by vector instructions

	// Memory system.
	L1Hits, L1Misses      uint64 // L1 data cache
	L2Hits, L2Misses      uint64 // at slice or scalar-request granularity
	L2ScalarReqs          uint64 // scalar requests presented to the L2
	L2VecSlices           uint64 // vector slices accepted by the L2
	L2PumpSlices          uint64 // slices served in stride-1 double-bandwidth mode
	L2SliceReplays        uint64 // slices replayed after a conflict
	L2PanicEvents         uint64 // panic-mode events (MAF pressure relief)
	L2PBitInvalidates     uint64 // L1 invalidations issued for P-bit lines
	L2Writebacks          uint64 // dirty lines written back to memory
	MAFPeak               uint64 // peak miss-address-file occupancy; Sub keeps the later value
	MAFFullStalls         uint64 // requests stalled on a full MAF
	CRRounds, CRSlices    uint64 // conflict-resolution rounds, and the slices the CR box processed
	ReorderSlices         uint64 // slices reordered before issue (conflict-free strided accesses)
	AddrGenCycles         uint64 // address-generator busy cycles
	TLBMisses, TLBRefills uint64 // vector TLB misses, and their PALcode refills
	DrainMs               uint64 // DrainM barriers executed
	BranchMispredicts     uint64
	Branches              uint64 // conditional branches retired
	VSBusTransfers        uint64 // scalar operands moved to the Vbox over the operand buses

	// Zbox (memory controller).
	MemReads, MemWrites, MemDirOps uint64 // transactions (64 B each); MemDirOps are directory-only
	RowActivates, RowHits          uint64 // DRAM row activations, and accesses hitting an open row
	Turnarounds                    uint64 // read/write bus turnarounds

	// Useful (STREAMS-convention) bytes, credited by the workload harness.
	UsefulBytes uint64
}

// VectorPct returns the percentage of retired operations executed in vector
// mode — Table 2's "Vect. %" column.
func (s *Stats) VectorPct() float64 {
	total := s.VecOps + s.ScalarIns
	if total == 0 {
		return 0
	}
	return 100 * float64(s.VecOps) / float64(total)
}

// RawMemBytes returns total bytes moved at the memory controller, including
// directory traffic — the "Raw BW" column of Table 4.
func (s *Stats) RawMemBytes() uint64 {
	return (s.MemReads + s.MemWrites + s.MemDirOps) * 64
}

// OPC returns sustained operations per cycle and its Figure 6 breakdown
// (flops per cycle, memory ops per cycle, other per cycle).
func (s *Stats) OPC() (opc, fpc, mpc, other float64) {
	if s.Cycles == 0 {
		return 0, 0, 0, 0
	}
	c := float64(s.Cycles)
	fpc = float64(s.Flops) / c
	mpc = float64(s.MemOps) / c
	other = float64(s.OtherOps) / c
	return fpc + mpc + other, fpc, mpc, other
}

// BandwidthMBs converts the useful-byte counter into MB/s given the clock.
func (s *Stats) BandwidthMBs(cpuGHz float64) float64 {
	if s.Cycles == 0 {
		return 0
	}
	secs := float64(s.Cycles) / (cpuGHz * 1e9)
	return float64(s.UsefulBytes) / secs / 1e6
}

// RawBandwidthMBs converts the raw Zbox traffic into MB/s.
func (s *Stats) RawBandwidthMBs(cpuGHz float64) float64 {
	if s.Cycles == 0 {
		return 0
	}
	secs := float64(s.Cycles) / (cpuGHz * 1e9)
	return float64(s.RawMemBytes()) / secs / 1e6
}

// Table renders the counters as an aligned two-column listing for the
// cmd/tarsim -v output.
func (s *Stats) Table() string {
	rows := []struct {
		k string
		v uint64
	}{
		{"cycles", s.Cycles},
		{"flops", s.Flops},
		{"mem ops", s.MemOps},
		{"other ops", s.OtherOps},
		{"scalar insts", s.ScalarIns},
		{"vector insts", s.VectorIns},
		{"vector ops", s.VecOps},
		{"L1 hits", s.L1Hits},
		{"L1 misses", s.L1Misses},
		{"L2 hits", s.L2Hits},
		{"L2 misses", s.L2Misses},
		{"L2 scalar reqs", s.L2ScalarReqs},
		{"L2 vector slices", s.L2VecSlices},
		{"L2 pump slices", s.L2PumpSlices},
		{"L2 slice replays", s.L2SliceReplays},
		{"L2 panic events", s.L2PanicEvents},
		{"P-bit invalidates", s.L2PBitInvalidates},
		{"L2 writebacks", s.L2Writebacks},
		{"MAF peak", s.MAFPeak},
		{"MAF-full stalls", s.MAFFullStalls},
		{"CR rounds", s.CRRounds},
		{"CR slices", s.CRSlices},
		{"reorder slices", s.ReorderSlices},
		{"addr-gen cycles", s.AddrGenCycles},
		{"TLB misses", s.TLBMisses},
		{"TLB refills", s.TLBRefills},
		{"DrainM barriers", s.DrainMs},
		{"branches", s.Branches},
		{"mispredicts", s.BranchMispredicts},
		{"VS-bus transfers", s.VSBusTransfers},
		{"mem reads", s.MemReads},
		{"mem writes", s.MemWrites},
		{"mem dir ops", s.MemDirOps},
		{"row activates", s.RowActivates},
		{"row hits", s.RowHits},
		{"rd/wr turnarounds", s.Turnarounds},
		{"useful bytes", s.UsefulBytes},
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %12d\n", r.k, r.v)
	}
	return b.String()
}

// GMean returns the geometric mean of vs, ignoring non-positive entries.
func GMean(vs []float64) float64 {
	logsum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			logsum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logsum / float64(n))
}

// Sub returns s - base field-wise: the counters attributable to a region of
// interest when base was snapshotted at its start. Peak-style fields
// (MAFPeak) keep the later value.
func Sub(s, base *Stats) *Stats {
	out := &Stats{}
	sv := reflect.ValueOf(*s)
	bv := reflect.ValueOf(*base)
	ov := reflect.ValueOf(out).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if sv.Field(i).Kind() != reflect.Uint64 {
			continue
		}
		ov.Field(i).SetUint(sv.Field(i).Uint() - bv.Field(i).Uint())
	}
	out.MAFPeak = s.MAFPeak
	return out
}
