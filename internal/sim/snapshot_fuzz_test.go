package sim_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// captureSnapshot produces one real chip snapshot (rndcopy@test on T).
func captureSnapshot(tb testing.TB) []byte { return captureSnapshotOn(tb, sim.T()) }

// captureSnapshotOn captures rndcopy's post-Setup snapshot at test scale on
// cfg.
func captureSnapshotOn(tb testing.TB, cfg *sim.Config) []byte {
	tb.Helper()
	b, err := workloads.Get("rndcopy")
	if err != nil {
		tb.Fatal(err)
	}
	var blob []byte
	if _, err := b.RunOpt(cfg, workloads.Test, workloads.RunOpts{
		OnWarmupSnapshot: func(_ uint64, bb []byte) { blob = bb },
	}); err != nil {
		tb.Fatal(err)
	}
	return blob
}

// FuzzSnapshotDecode hammers the full restore path — envelope validation
// plus every component's LoadState — with mutated snapshot bytes. Whatever
// the input, RestoreChip must return a chip or an error: never panic,
// never allocate beyond the blob's own size class, never half-restore
// (an error means no chip).
func FuzzSnapshotDecode(f *testing.F) {
	valid := captureSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                       // truncated
	f.Add(valid[:16])                                 // header only
	f.Add([]byte{})                                   // empty
	f.Add([]byte("TARSNAP\x00garbage after a magic")) // magic, junk body
	for _, i := range []int{8, 12, 20, len(valid) / 2, len(valid) - 5} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	cfg := sim.T()
	f.Fuzz(func(t *testing.T, raw []byte) {
		ch, m, err := sim.RestoreChip(cfg, raw)
		if err != nil {
			if ch != nil || m != nil {
				t.Fatal("failed restore returned a half-built chip")
			}
			return
		}
		if ch == nil || m == nil {
			t.Fatal("successful restore returned a nil chip or machine")
		}
	})
}

// TestRestoreChipRejectsWrongShape pins the geometry checks: a snapshot
// captured on one configuration must not restore onto another.
func TestRestoreChipRejectsWrongShape(t *testing.T) {
	blob := captureSnapshot(t)
	scalar := sim.EV8() // no Vbox: presence flag must mismatch
	if _, _, err := sim.RestoreChip(scalar, blob); err == nil {
		t.Error("vector snapshot restored onto a scalar config")
	}
	small := sim.T()
	small.L2.Bytes = small.L2.Bytes / 2
	if _, _, err := sim.RestoreChip(small, blob); err == nil {
		t.Error("snapshot restored onto a config with a different L2 geometry")
	}
}

// TestWarmupSnapshotFollowsTouchedSets: the snapshot encodes only the L2
// chunks the warm-up touched, so its size does not grow with the modelled
// capacity. rndcopy's warm-up leaves a few thousand of the 16 MB cache's
// 262,144 ways valid; a blob carrying every way was 11.6 MB at 32 MB.
func TestWarmupSnapshotFollowsTouchedSets(t *testing.T) {
	sizes := map[int]int{}
	for _, kb := range []int{4096, 16384, 32768} {
		cfg := sim.T()
		cfg.L2.Bytes = kb << 10
		sizes[kb] = len(captureSnapshotOn(t, cfg))
	}
	t.Logf("rndcopy warm-up snapshot bytes by l2_kb: %v", sizes)
	if sizes[32768] > 2_500_000 {
		t.Errorf("32 MB L2 snapshot is %d bytes, want at most 2.5 MB", sizes[32768])
	}
	if sizes[32768] > 2*sizes[4096] {
		t.Errorf("snapshot grows with capacity: %v", sizes)
	}
}
