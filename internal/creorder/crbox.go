package creorder

import (
	"slices"

	"repro/internal/isa"
)

// CRBox models the conflict-resolution box (§3.4): gather/scatter and
// self-conflicting-stride addresses do not form an arithmetic series the
// reordering scheme covers, so the box sorts them into bank-conflict-free
// buckets with a selection tournament.
//
// The hardware receives sixteen bank identifiers per cycle — one per
// address generator, i.e. one per lane — and keeps whatever lost the
// previous tournament. We model that exactly: per-lane FIFO queues of
// pending elements; each round the sixteen queue heads compete and the
// largest bank-distinct subset (one element per distinct bank, oldest lane
// first) is packed into a slice.
type CRBox struct {
	// Rounds accumulates tournament rounds run, which the Vbox timing
	// model charges one cycle each.
	Rounds int
	// Slices accumulates slices produced.
	Slices int
}

// Pack sorts the element addresses into conflict-free slices, written into
// buf, and returns them along with the number of tournament rounds the
// packing took. Element lane assignment follows the register file slicing
// (index mod 16). In the worst case — all addresses on one bank — a
// 128-element instruction yields 128 single-element slices (the paper's
// stated worst case). The slices' elements share buf's element array, cut
// with full slice expressions.
func (cr *CRBox) Pack(elems []Elem, tag0 int, buf *Buf) ([]Slice, int) {
	// The per-lane FIFOs share one array, lane after lane: lane l's pending
	// elements are queue[next[l]:end[l]].
	var next, end [isa.NumLanes]int
	for _, e := range elems {
		end[LaneOf(e.Index)]++
	}
	for l, off := 0, 0; l < isa.NumLanes; l++ {
		next[l] = off
		off += end[l]
		end[l] = next[l]
	}
	var qbuf [isa.VLMax]Elem
	queue := slices.Grow(qbuf[:0], len(elems))[:len(elems)]
	for _, e := range elems {
		l := LaneOf(e.Index)
		queue[end[l]] = e
		end[l]++
	}
	// Each round's winners are appended to packed, and each round's slice
	// is cut once the round ends.
	buf.reset(len(elems))
	packed, out := buf.Elems, buf.Slices
	for len(packed) < len(elems) {
		start := len(packed)
		var bankUsed [NumBanks]bool
		for l := 0; l < isa.NumLanes; l++ {
			if next[l] == end[l] {
				continue
			}
			head := queue[next[l]]
			b := BankOf(head.Addr)
			if bankUsed[b] {
				continue // loses this tournament, retries next round
			}
			bankUsed[b] = true
			packed = append(packed, head)
			next[l]++
		}
		cut := len(packed)
		out = append(out, Slice{Tag: tag0 + len(out), Elems: packed[start:cut:cut], QWords: cut - start})
	}
	buf.Elems, buf.Slices = packed, out
	cr.Rounds += len(out)
	cr.Slices += len(out)
	return out, len(out)
}

// PackStrided routes a self-conflicting strided access (σ·2^s, s > 4, or a
// degenerate stride) through the CR box, per §3.4: "Any instruction with
// such a stride is treated exactly like a gather/scatter."
func (cr *CRBox) PackStrided(base uint64, strideBytes int64, active []bool, tag0 int, buf *Buf) ([]Slice, int) {
	var ebuf [isa.VLMax]Elem
	elems := ebuf[:0]
	for i, act := range active {
		if !act {
			continue
		}
		elems = append(elems, Elem{Index: i, Addr: base + uint64(int64(i)*strideBytes)})
	}
	return cr.Pack(elems, tag0, buf)
}
