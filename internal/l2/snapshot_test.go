package l2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/zbox"
)

// present lists the allocated tag-store chunks.
func present(c *L2) []int {
	var ks []int
	for k, ways := range c.ways {
		if ways != nil {
			ks = append(ks, k)
		}
	}
	return ks
}

// warm allocates each address's line dirty at cycle from and drains the
// cache, returning the cycle it went quiet.
func warm(t *testing.T, c *L2, z *zbox.Zbox, from uint64, addrs ...uint64) uint64 {
	t.Helper()
	for _, a := range addrs {
		c.WH64(from, a, nil)
	}
	end := drive(c, z, from, 100_000)
	if c.Busy() || z.Busy() {
		t.Fatalf("cache still busy at cycle %d", end)
	}
	return end
}

func saveL2(t *testing.T, c *L2) []byte {
	t.Helper()
	w := snapshot.NewWriter()
	if err := c.SaveState(w, 0); err != nil {
		t.Fatal(err)
	}
	return w.Finish()
}

func loadL2(c *L2, blob []byte) error {
	r, err := snapshot.NewReader(blob)
	if err != nil {
		return err
	}
	if err := c.LoadState(r, 0); err != nil {
		return err
	}
	return r.Close()
}

// reseal wraps a (possibly truncated) blob body in a valid CRC trailer, so
// the damage reaches LoadState instead of stopping at the envelope check.
func reseal(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

func TestFreshCacheAllocatesNoChunk(t *testing.T) {
	c, _, _ := testSetup()
	if got := present(c); got != nil {
		t.Fatalf("fresh cache holds chunks %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { c.Present(0x12340) }); n != 0 {
		t.Errorf("probing an untouched set allocated %.0f times", n)
	}
	if got := present(c); got != nil {
		t.Errorf("a probe allocated chunks %v", got)
	}
}

func TestInstallAllocatesOneChunk(t *testing.T) {
	c, z, _ := testSetup()
	// 2048 sets of 64-byte lines: a chunk of 64 sets spans 4 KiB of each
	// 128 KiB set period, so 0x5000 and 0x5040 share chunk 5.
	end := warm(t, c, z, 0, 0x5000)
	if got := present(c); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("one install allocated chunks %v, want [5]", got)
	}
	warm(t, c, z, end, 0x5040)
	if got := present(c); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("a second line in the same chunk allocated chunks %v", got)
	}
	if !c.Present(0x5000) || !c.Present(0x5040) || c.Present(0x5080) {
		t.Error("residency does not match the installs")
	}

	// A cache smaller than one chunk holds a single chunk of all its sets.
	tiny, tz, _ := testSetupBytes(16 << 10)
	if len(tiny.ways) != 1 || tiny.chunkWays() != 32*8 {
		t.Fatalf("16 KiB cache: %d chunks of %d ways, want 1 of 256", len(tiny.ways), tiny.chunkWays())
	}
	warm(t, tiny, tz, 0, 0x7c0)
	if !tiny.Present(0x7c0) || !reflect.DeepEqual(present(tiny), []int{0}) {
		t.Error("install into a single-chunk cache failed")
	}
}

func TestSparseSnapshotRoundTrip(t *testing.T) {
	c, z, _ := testSetup()
	lines := []uint64{0x0, 0x5000, 0x5040, 0x1f000, 0x45000}
	warm(t, c, z, 0, lines...)
	blob := saveL2(t, c)

	fresh, _, _ := testSetup()
	if err := loadL2(fresh, blob); err != nil {
		t.Fatal(err)
	}
	if got, want := present(fresh), present(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored chunks %v, want %v", got, want)
	}
	for _, l := range lines {
		if !fresh.Present(l) {
			t.Errorf("line %#x lost in the round trip", l)
		}
	}
	if again := saveL2(t, fresh); !bytes.Equal(again, blob) {
		t.Error("restored cache re-encodes to different bytes")
	}
	// Three chunks of 512 ways are encoded; the other 29 cost a flag each.
	if max := 4 * 512 * 22; len(blob) > max {
		t.Errorf("sparse blob is %d bytes, want at most %d", len(blob), max)
	}
}

func TestLoadStateRejectsTruncatedChunk(t *testing.T) {
	c, z, _ := testSetup()
	warm(t, c, z, 0, 0x5000)
	body := saveL2(t, c)
	body = body[:len(body)-4]
	header := len(snapshot.NewWriter().Finish()) - 4
	// Every proper prefix of the payload, including each cut inside chunk
	// 5's way records, is corrupt and leaves the target cache untouched.
	for cut := header; cut < len(body); cut += 7 {
		fresh, _, _ := testSetup()
		err := loadL2(fresh, reseal(body[:cut]))
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("cut at %d of %d: err = %v, want ErrCorrupt", cut, len(body), err)
		}
		if got := present(fresh); got != nil {
			t.Fatalf("cut at %d: half-restored chunks %v", cut, got)
		}
	}
}

func TestLoadStateRejectsForeignGeometry(t *testing.T) {
	c, z, _ := testSetup()
	warm(t, c, z, 0, 0x5000)
	blob := saveL2(t, c)
	for _, bytes := range []int{2 << 20, 16 << 10} {
		other, _, _ := testSetupBytes(bytes)
		if err := loadL2(other, blob); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%d-byte cache: err = %v, want ErrCorrupt", bytes, err)
		}
		if got := present(other); got != nil {
			t.Errorf("%d-byte cache: foreign blob allocated chunks %v", bytes, got)
		}
	}
}
