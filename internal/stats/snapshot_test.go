package stats

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"repro/internal/snapshot"
)

// counterSection is the counter section of a chip snapshot, as schema 2
// lays it out, when the i-th counter in declaration order holds i+1: the
// tag "metrics", the count 37, then 1 through 37, each a little-endian
// uint64.
const counterSection = "0700000000000000" + "6d657472696373" + "2500000000000000" +
	"0100000000000000" + "0200000000000000" + "0300000000000000" + "0400000000000000" +
	"0500000000000000" + "0600000000000000" + "0700000000000000" + "0800000000000000" +
	"0900000000000000" + "0a00000000000000" + "0b00000000000000" + "0c00000000000000" +
	"0d00000000000000" + "0e00000000000000" + "0f00000000000000" + "1000000000000000" +
	"1100000000000000" + "1200000000000000" + "1300000000000000" + "1400000000000000" +
	"1500000000000000" + "1600000000000000" + "1700000000000000" + "1800000000000000" +
	"1900000000000000" + "1a00000000000000" + "1b00000000000000" + "1c00000000000000" +
	"1d00000000000000" + "1e00000000000000" + "1f00000000000000" + "2000000000000000" +
	"2100000000000000" + "2200000000000000" + "2300000000000000" + "2400000000000000" +
	"2500000000000000"

// counting returns a Stats whose i-th field holds i+1.
func counting() *Stats {
	s := &Stats{}
	sv := reflect.ValueOf(s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetUint(uint64(i + 1))
	}
	return s
}

// section strips a sealed blob's envelope: the 12-byte header (magic and
// schema) and the trailing CRC.
func section(blob []byte) []byte { return blob[12 : len(blob)-4] }

// TestSnapshotSectionIsPinned: the counter section's bytes are fixed by
// schema 2, so a field added, removed or reordered without a schema bump
// fails here rather than in a restore.
func TestSnapshotSectionIsPinned(t *testing.T) {
	w := snapshot.NewWriter()
	counting().SaveState(w)
	if got := hex.EncodeToString(section(w.Finish())); got != counterSection {
		t.Fatalf("counter section:\n got %s\nwant %s", got, counterSection)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	w := snapshot.NewWriter()
	counting().SaveState(w)
	r, err := snapshot.NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	var got Stats
	if err := got.LoadState(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got != *counting() {
		t.Fatalf("round trip: got %+v, want %+v", got, *counting())
	}
}

// TestSnapshotCounterSkewIsCorrupt: a section written by a build with one
// counter fewer or one more is refused, not half-loaded.
func TestSnapshotCounterSkewIsCorrupt(t *testing.T) {
	for _, n := range []int{36, 38} {
		w := snapshot.NewWriter()
		w.Tag("metrics")
		w.U64(uint64(n))
		for i := 0; i < n; i++ {
			w.U64(uint64(i + 1))
		}
		r, err := snapshot.NewReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		if err := new(Stats).LoadState(r); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%d counters: err = %v, want snapshot.ErrCorrupt", n, err)
		}
	}
}
