package mem

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/snapshot"
)

func TestLoadStoreQ(t *testing.T) {
	m := New()
	m.StoreQ(0x1000, 0xdeadbeefcafef00d)
	if got := m.LoadQ(0x1000); got != 0xdeadbeefcafef00d {
		t.Fatalf("LoadQ = %#x", got)
	}
	if got := m.LoadQ(0x2000); got != 0 {
		t.Fatalf("untouched memory = %#x, want 0", got)
	}
}

func TestLoadStoreQRoundTrip(t *testing.T) {
	m := New()
	f := func(addr uint64, v uint64) bool {
		addr = (addr % (1 << 30)) &^ 7
		m.StoreQ(addr, v)
		return m.LoadQ(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New()
	m.StoreQ(0, 0x0807060504030201)
	if got := m.LoadL(0); got != 0x04030201 {
		t.Fatalf("low longword = %#x", got)
	}
	if got := m.LoadL(4); got != 0x08070605 {
		t.Fatalf("high longword = %#x", got)
	}
}

func TestLoadStoreL(t *testing.T) {
	m := New()
	m.StoreL(0x100, 0x11223344)
	m.StoreL(0x104, 0x55667788)
	if got := m.LoadQ(0x100); got != 0x5566778811223344 {
		t.Fatalf("combined quadword = %#x", got)
	}
}

func TestUnalignedPanics(t *testing.T) {
	m := New()
	for _, f := range []func(){
		func() { m.LoadQ(3) },
		func() { m.StoreQ(5, 0) },
		func() { m.LoadL(2) },
		func() { m.StoreL(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on unaligned access")
				}
			}()
			f()
		}()
	}
}

func TestZeroLine(t *testing.T) {
	m := New()
	for i := uint64(0); i < 16; i++ {
		m.StoreQ(0x1000+i*8, ^uint64(0))
	}
	m.ZeroLine(0x1060) // any address within the second line (0x1040..0x107f)
	for i := uint64(0); i < 8; i++ {
		if got := m.LoadQ(0x1000 + i*8); got != ^uint64(0) {
			t.Fatalf("first line clobbered at +%d", i*8)
		}
	}
	for i := uint64(8); i < 16; i++ {
		if got := m.LoadQ(0x1000 + i*8); got != 0 {
			t.Fatalf("second line not zeroed at +%d: %#x", i*8, got)
		}
	}
}

func TestSparseFrames(t *testing.T) {
	m := New()
	m.StoreQ(0, 1)
	m.StoreQ(1<<40, 2) // far-away address should cost one frame, not 1 TB
	if m.Footprint() > 4*FrameSize {
		t.Fatalf("footprint %d too large for two touches", m.Footprint())
	}
	if m.LoadQ(1<<40) != 2 {
		t.Fatal("far store lost")
	}
}

func TestHighWater(t *testing.T) {
	m := New()
	m.StoreQ(0x500, 7)
	if hw := m.HighWater(); hw != 0x508 {
		t.Fatalf("HighWater = %#x, want 0x508", hw)
	}
}

// TestLoadStateResetsFrameCache: LoadState replaces every frame, so the
// last-frame cache must not keep serving the image it replaced. The
// snapshot A/B matrix restores into fresh memories and would not notice.
func TestLoadStateResetsFrameCache(t *testing.T) {
	saved := New()
	saved.StoreQ(0x1000, 1)
	w := snapshot.NewWriter()
	saved.SaveState(w)
	blob := w.Finish()

	m := New()
	m.StoreQ(0x1000, 2) // warm the cache on the frame the image replaces
	r, err := snapshot.NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadState(r); err != nil {
		t.Fatal(err)
	}
	if got := m.LoadQ(0x1000); got != 1 {
		t.Fatalf("LoadQ after LoadState = %d, want the restored 1", got)
	}
	m.StoreQ(0x1008, 3)
	if got := m.LoadQ(0x1008); got != 3 {
		t.Fatalf("a store after LoadState read back %d, want 3", got)
	}
}

// TestStridedAccessMatchesPerElement: the strided accessors read and write
// what LoadQ and StoreQ do element by element, and leave the same
// high-water mark, for zero, negative and positive strides whose elements
// cross 1 MiB frame boundaries.
func TestStridedAccessMatchesPerElement(t *testing.T) {
	for _, c := range []struct {
		base   uint64
		stride int64
		n      int
	}{
		{FrameSize - 8*5, 8, 16},         // crosses one boundary mid-access
		{3*FrameSize + 16, -8, 128},      // crosses downward
		{FrameSize - 64, 0, 9},           // every element at one address
		{2*FrameSize - 8, 1 << 17, 40},   // a new frame every eight elements
		{5*FrameSize + 8, -(1 << 18), 7}, // a new frame every fourth
		{FrameSize, 8, 0},
	} {
		want, got := New(), New()
		src := make([]uint64, c.n)
		for i := range src {
			src[i] = uint64(i+1) * 0x0101010101
		}
		for i, v := range src {
			want.StoreQ(c.base+uint64(int64(i)*c.stride), v)
		}
		got.StoreQStrided(c.base, c.stride, src)
		if got.HighWater() != want.HighWater() || got.Footprint() != want.Footprint() {
			t.Errorf("base %#x stride %d: StoreQStrided high water %#x, footprint %d; per element %#x, %d",
				c.base, c.stride, got.HighWater(), got.Footprint(), want.HighWater(), want.Footprint())
		}
		dst := make([]uint64, c.n)
		got.LoadQStrided(dst, c.base, c.stride)
		for i := range dst {
			if w := want.LoadQ(c.base + uint64(int64(i)*c.stride)); dst[i] != w {
				t.Fatalf("base %#x stride %d: element %d read %#x, want %#x", c.base, c.stride, i, dst[i], w)
			}
		}
		// A load beyond the high-water mark raises it as LoadQ does.
		fresh, ref := New(), New()
		fresh.LoadQStrided(make([]uint64, c.n), c.base, c.stride)
		for i := 0; i < c.n; i++ {
			ref.LoadQ(c.base + uint64(int64(i)*c.stride))
		}
		if fresh.HighWater() != ref.HighWater() {
			t.Errorf("base %#x stride %d: LoadQStrided high water %#x, want %#x", c.base, c.stride, fresh.HighWater(), ref.HighWater())
		}
	}
}

// TestStridedAccessUnalignedPanics: an unaligned base or stride panics as
// LoadQ and StoreQ do, naming the unaligned address (vasm turns the text
// into a positional BuildError).
func TestStridedAccessUnalignedPanics(t *testing.T) {
	m := New()
	for _, f := range []func(){
		func() { m.LoadQStrided(make([]uint64, 4), 0x1004, 8) },
		func() { m.LoadQStrided(make([]uint64, 4), 0x1000, 12) },
		func() { m.StoreQStrided(0x1002, 8, make([]uint64, 4)) },
	} {
		func() {
			defer func() {
				r := recover()
				if s, _ := r.(string); !strings.Contains(s, "unaligned") {
					t.Errorf("panic %v, want the unaligned-access text", r)
				}
			}()
			f()
		}()
	}
}
