package creorder

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func allActive() []bool {
	a := make([]bool, isa.VLMax)
	for i := range a {
		a[i] = true
	}
	return a
}

func checkConflictFree(t *testing.T, s Slice) {
	t.Helper()
	var banks, lanes [16]bool
	for _, e := range s.Elems {
		b := BankOf(e.Addr)
		if banks[b] {
			t.Fatalf("slice %d: bank %d used twice", s.Tag, b)
		}
		banks[b] = true
		if !s.Pump {
			l := LaneOf(e.Index)
			if lanes[l] {
				t.Fatalf("slice %d: lane %d used twice", s.Tag, l)
			}
			lanes[l] = true
		}
	}
}

func TestClassifyStride(t *testing.T) {
	cases := []struct {
		stride int64
		want   Mode
	}{
		{8, ModePump},          // unit stride
		{16, ModeReorder},      // q=2 = 1·2^1
		{24, ModeReorder},      // q=3 odd
		{40, ModeReorder},      // q=5
		{64, ModeReorder},      // q=8 = 1·2^3, boundary s=3
		{128, ModeCR},          // q=16 = 1·2^4, self-conflicting (s=4)
		{256, ModeCR},          // q=32
		{1024, ModeCR},         // q=128
		{8 * 96, ModeCR},       // q=96 = 3·2^5
		{0, ModeCR},            // degenerate
		{4, ModeCR},            // sub-quadword
		{-16, ModeReorder},     // negative strides classify by magnitude
		{8 * 312, ModeReorder}, // q=312 = 39·8, s=3
		{8 * 624, ModeCR},      // q=624 = 39·16, s=4
	}
	for _, c := range cases {
		if got := ClassifyStride(c.stride); got != c.want {
			t.Errorf("ClassifyStride(%d) = %s, want %s", c.stride, got, c.want)
		}
	}
}

func TestReorderTheorem(t *testing.T) {
	// The paper's theorem: for any reorderable stride S = σ·2^s (σ odd) and
	// any base, the 128 elements pack into exactly 8 slices, bank- and
	// lane-conflict free. Under the bits<9:6> bank mapping this holds for
	// s ≤ 3 (see BankOf); sweep σ and s exhaustively over a generous range
	// of σ and representative base offsets.
	for s := 0; s <= 3; s++ {
		for sigma := int64(1); sigma <= 33; sigma += 2 {
			q := sigma << s
			if q == 1 {
				continue // stride-1 takes the pump path
			}
			stride := q * 8
			for _, baseOff := range []uint64{0, 8, 64, 72, 512, 1016} {
				base := uint64(1<<20) + baseOff
				slices, mode := ScheduleStrided(base, stride, allActive(), 0)
				if mode != ModeReorder {
					t.Fatalf("stride %d classified %s", stride, mode)
				}
				if len(slices) > 8 {
					t.Fatalf("stride %d (σ=%d,s=%d) base %#x: %d slices, want ≤8",
						stride, sigma, s, base, len(slices))
				}
				covered := map[int]bool{}
				for _, sl := range slices {
					checkConflictFree(t, sl)
					for _, e := range sl.Elems {
						if covered[e.Index] {
							t.Fatalf("element %d scheduled twice", e.Index)
						}
						covered[e.Index] = true
						want := base + uint64(int64(e.Index)*stride)
						if e.Addr != want {
							t.Fatalf("element %d addr %#x, want %#x", e.Index, e.Addr, want)
						}
					}
				}
				if len(covered) != isa.VLMax {
					t.Fatalf("stride %d: only %d/128 elements covered", stride, len(covered))
				}
			}
		}
	}
}

func TestReorderTheoremProperty(t *testing.T) {
	f := func(sigmaSeed uint8, s uint8, baseSeed uint16) bool {
		sigma := int64(sigmaSeed) | 1 // force odd
		sExp := int(s) % 4
		stride := (sigma << sExp) * 8
		if stride == 8 {
			return true
		}
		base := (uint64(baseSeed) * 8) % (1 << 18)
		slices, mode := ScheduleStrided(1<<20+base, stride, allActive(), 0)
		if mode != ModeReorder {
			return false
		}
		if len(slices) > 8 {
			return false
		}
		n := 0
		for _, sl := range slices {
			var banks, lanes [16]bool
			for _, e := range sl.Elems {
				b, l := BankOf(e.Addr), LaneOf(e.Index)
				if banks[b] || lanes[l] {
					return false
				}
				banks[b], lanes[l] = true, true
				n++
			}
		}
		return n == isa.VLMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReorderShortVectorStillEightSlices(t *testing.T) {
	// vl < 128 still pays the full requesting order: the schedule keeps its
	// (possibly empty) slice positions (§3.4: "vector instructions with
	// vector length below 128 still pay the full eight cycles").
	active := make([]bool, isa.VLMax)
	for i := 0; i < 40; i++ {
		active[i] = true
	}
	slices, _ := ScheduleStrided(1<<20, 16, active, 0)
	if len(slices) > 8 {
		t.Fatalf("%d slices for vl=40", len(slices))
	}
	n := 0
	for _, s := range slices {
		checkConflictFree(t, s)
		n += len(s.Elems)
	}
	if n != 40 {
		t.Fatalf("covered %d elements, want 40", n)
	}
}

func TestPumpAligned(t *testing.T) {
	// 128 consecutive quadwords from a line-aligned base: exactly 16 lines,
	// one per bank, one pump slice.
	slices, mode := ScheduleStrided(1<<20, 8, allActive(), 0)
	if mode != ModePump {
		t.Fatalf("mode %s", mode)
	}
	if len(slices) != 1 {
		t.Fatalf("%d slices, want 1", len(slices))
	}
	s := slices[0]
	if !s.Pump || len(s.Elems) != 16 || s.QWords != 128 {
		t.Fatalf("pump slice = %+v", s)
	}
	checkConflictFree(t, s)
}

func TestPumpMisaligned(t *testing.T) {
	// A base not aligned to a line boundary touches 17 lines → two pump
	// slices (§3.4 footnote 3).
	slices, mode := ScheduleStrided(1<<20+8, 8, allActive(), 0)
	if mode != ModePump {
		t.Fatalf("mode %s", mode)
	}
	if len(slices) != 2 {
		t.Fatalf("%d slices, want 2 for misaligned stride-1", len(slices))
	}
	if got := slices[0].QWords + slices[1].QWords; got != 128 {
		t.Fatalf("pump qwords %d, want 128", got)
	}
}

func TestPumpShortVector(t *testing.T) {
	active := make([]bool, isa.VLMax)
	for i := 0; i < 32; i++ {
		active[i] = true
	}
	slices, _ := ScheduleStrided(1<<20, 8, active, 0)
	if len(slices) != 1 {
		t.Fatalf("%d slices", len(slices))
	}
	if slices[0].QWords != 32 || len(slices[0].Elems) != 4 {
		t.Fatalf("slice = %+v", slices[0])
	}
}

func TestCRBoxRandomPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	elems := make([]Elem, isa.VLMax)
	perm := rng.Perm(4096)
	for i := range elems {
		elems[i] = Elem{Index: i, Addr: 1<<20 + uint64(perm[i])*8}
	}
	var cr CRBox
	slices, rounds := cr.Pack(elems, 0)
	n := 0
	for _, s := range slices {
		checkConflictFree(t, s)
		n += len(s.Elems)
	}
	if n != isa.VLMax {
		t.Fatalf("covered %d, want 128", n)
	}
	if rounds != len(slices) {
		t.Fatalf("rounds %d != slices %d", rounds, len(slices))
	}
	// Random addresses should pack far better than worst case but worse
	// than the perfect 8.
	if len(slices) < 8 || len(slices) > 40 {
		t.Fatalf("suspicious slice count %d for random pattern", len(slices))
	}
}

func TestCRBoxWorstCaseSingleBank(t *testing.T) {
	// All addresses on one bank: 128 slices (the paper's stated worst case).
	elems := make([]Elem, isa.VLMax)
	for i := range elems {
		elems[i] = Elem{Index: i, Addr: 1<<20 + uint64(i)*1024} // bank 0 every time
	}
	var cr CRBox
	slices, _ := cr.Pack(elems, 0)
	if len(slices) != isa.VLMax {
		t.Fatalf("%d slices, want 128", len(slices))
	}
	for _, s := range slices {
		if len(s.Elems) != 1 {
			t.Fatalf("worst-case slice holds %d elements", len(s.Elems))
		}
	}
}

func TestCRBoxPreservesPerLaneOrder(t *testing.T) {
	// Within a lane, elements must be scheduled oldest-first (per-lane
	// FIFO): check element indices of one lane appear in increasing order.
	rng := rand.New(rand.NewSource(7))
	elems := make([]Elem, isa.VLMax)
	for i := range elems {
		elems[i] = Elem{Index: i, Addr: 1<<20 + uint64(rng.Intn(512))*8}
	}
	var cr CRBox
	slices, _ := cr.Pack(elems, 0)
	last := make(map[int]int)
	for _, s := range slices {
		for _, e := range s.Elems {
			l := LaneOf(e.Index)
			if prev, ok := last[l]; ok && e.Index < prev {
				t.Fatalf("lane %d scheduled element %d after %d", l, e.Index, prev)
			}
			last[l] = e.Index
		}
	}
}

func TestCRBoxSelfConflictingStride(t *testing.T) {
	// Stride of 2048 bytes (q=256 = 1·2^8): every address maps to bank of
	// base; PackStrided must serialise completely.
	var cr CRBox
	slices, _ := cr.PackStrided(1<<20, 2048, allActive(), 0)
	if len(slices) != isa.VLMax {
		t.Fatalf("self-conflicting stride gave %d slices, want 128", len(slices))
	}
}

func TestCRBoxProperty(t *testing.T) {
	// Every packing covers all elements exactly once and every slice is
	// conflict-free, for arbitrary address patterns.
	f := func(offsets [64]uint16) bool {
		elems := make([]Elem, len(offsets))
		for i, o := range offsets {
			elems[i] = Elem{Index: i, Addr: 1<<20 + uint64(o)*8}
		}
		var cr CRBox
		slices, _ := cr.Pack(elems, 0)
		n := 0
		for _, s := range slices {
			var banks [16]bool
			var lanes [16]bool
			for _, e := range s.Elems {
				b, l := BankOf(e.Addr), LaneOf(e.Index)
				if banks[b] || lanes[l] {
					return false
				}
				banks[b], lanes[l] = true, true
				n++
			}
		}
		return n == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestROMMemoisationConsistency(t *testing.T) {
	// Two bases with the same offset pattern must produce the same element
	// grouping (exercises the ROM hit path).
	a1, _ := ScheduleStrided(1<<20+24*8, 24, allActive(), 0)
	a2, _ := ScheduleStrided(5<<20+24*8, 24, allActive(), 0)
	if len(a1) != len(a2) {
		t.Fatalf("slice counts differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if len(a1[i].Elems) != len(a2[i].Elems) {
			t.Fatalf("slice %d shapes differ", i)
		}
		for j := range a1[i].Elems {
			if a1[i].Elems[j].Index != a2[i].Elems[j].Index {
				t.Fatalf("slice %d elem %d: index %d vs %d",
					i, j, a1[i].Elems[j].Index, a2[i].Elems[j].Index)
			}
		}
	}
}

func BenchmarkReorderROMHit(b *testing.B) {
	act := allActive()
	ScheduleStrided(1<<20, 24, act, 0) // warm the ROM
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScheduleStrided(1<<20, 24, act, 0)
	}
}

func BenchmarkCRBoxPack(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	elems := make([]Elem, isa.VLMax)
	for i := range elems {
		elems[i] = Elem{Index: i, Addr: uint64(rng.Intn(1<<20)) &^ 7}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cr CRBox
		cr.Pack(elems, 0)
	}
}

func TestMaskedScheduleOnlyActiveElements(t *testing.T) {
	active := make([]bool, isa.VLMax)
	for i := 0; i < isa.VLMax; i += 3 {
		active[i] = true
	}
	slices, mode := ScheduleStrided(1<<20, 24, active, 0)
	if mode != ModeReorder {
		t.Fatalf("mode %s", mode)
	}
	n := 0
	for _, s := range slices {
		checkConflictFree(t, s)
		for _, e := range s.Elems {
			if !active[e.Index] {
				t.Fatalf("inactive element %d scheduled", e.Index)
			}
			n++
		}
	}
	if n != (isa.VLMax+2)/3 {
		t.Fatalf("scheduled %d elements", n)
	}
}

func TestNoPumpPathForcesReorder(t *testing.T) {
	slices, mode := ScheduleStridedNoPump(1<<20, 8, allActive(), 0)
	if mode != ModeReorder {
		t.Fatalf("no-pump stride-1 mode = %s, want reorder", mode)
	}
	if len(slices) != 8 {
		t.Fatalf("no-pump stride-1 gave %d slices, want 8 (the §6 8x MAF pressure)", len(slices))
	}
	for _, s := range slices {
		if s.Pump {
			t.Fatal("no-pump slice carries the pump bit")
		}
		checkConflictFree(t, s)
	}
}

// TestAddressGenerationAllocs pins the host allocations of one vector
// memory instruction's address generation: the slice headers and one
// backing array their elements share, whatever the path.
func TestAddressGenerationAllocs(t *testing.T) {
	act := allActive()
	rng := rand.New(rand.NewSource(3))
	gather := make([]Elem, isa.VLMax)
	for i := range gather {
		gather[i] = Elem{Index: i, Addr: uint64(rng.Intn(1<<20)) &^ 7}
	}
	var cr CRBox
	cases := []struct {
		name string
		want float64
		run  func()
	}{
		{"reorder stride 3", 2, func() { ScheduleStrided(1<<20, 24, act, 0) }},
		{"pump stride 1", 2, func() { ScheduleStrided(1<<20+8, 8, act, 0) }},
		{"CR box gather", 2, func() { cr.Pack(gather, 0) }},
		{"CR box self-conflicting stride", 2, func() { cr.PackStrided(1<<20, 2048, act, 0) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.run); got != c.want {
			t.Errorf("%s: %.0f allocations per instruction, want %.0f", c.name, got, c.want)
		}
	}
}

// TestSlicesDoNotShareCapacity: slices cut from one backing array must not
// be able to grow into their neighbours.
func TestSlicesDoNotShareCapacity(t *testing.T) {
	reorder, _ := ScheduleStrided(1<<20, 24, allActive(), 0)
	pump, _ := ScheduleStrided(1<<20+8, 8, allActive(), 0)
	var cr CRBox
	packed, _ := cr.PackStrided(1<<20, 2048, allActive(), 0)
	for _, group := range [][]Slice{reorder, pump, packed} {
		for i, s := range group {
			if cap(s.Elems) != len(s.Elems) {
				t.Fatalf("slice %d: cap %d > len %d", i, cap(s.Elems), len(s.Elems))
			}
		}
	}
}

// TestROMConcurrentUse schedules from several goroutines at once, as the
// parallel sweep runner and the server do; run it under -race. Every
// goroutine must see the same schedule as a serial call.
func TestROMConcurrentUse(t *testing.T) {
	act := allActive()
	strides := []int64{16, 24, 40, 56, 64, 8 * 312}
	want := make([][]Slice, len(strides))
	for i, st := range strides {
		want[i], _ = ScheduleStrided(3<<20+uint64(i)*8, st, act, 0)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				i := (g + n) % len(strides)
				// Fresh keys force stores while other goroutines load.
				ScheduleStrided(uint64(g*1024+n*8), strides[i]+int64(16*n), act, 0)
				got, _ := ScheduleStrided(3<<20+uint64(i)*8, strides[i], act, 0)
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Sprintf("goroutine %d: stride %d schedule differs", g, strides[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
