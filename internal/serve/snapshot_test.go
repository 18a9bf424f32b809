package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/store"
)

// snapBlob builds a small, valid snapshot-envelope blob (not a full chip
// snapshot — the store only checks the envelope, by design).
func snapBlob(fill string) []byte {
	w := snapshot.NewWriter()
	w.Tag("chip")
	w.String(fill)
	return w.Finish()
}

// TestWarmupSharedOnce is the checkpoint feature's serve-level acceptance
// drill: three concurrent jobs along phys_vregs — a knob that cannot affect
// the warm-up phase — over a benchmark with a warm-up (rndcopy) must
// simulate that warm-up exactly once. The first to run captures the
// post-Setup snapshot; the other two fork from it, whether they hit the
// store or join the leader's in-flight warm-up.
func TestWarmupSharedOnce(t *testing.T) {
	// No Run stub: the real simulator runs, so the snapshot-aware path is
	// wired against the default in-memory store.
	_, ts := newTestServer(t, Options{Workers: 4})
	var ids []string
	for _, v := range []float64{64, 96, 128} {
		st, code := submit(t, ts.URL, SubmitRequest{Bench: "rndcopy", Config: "T", Scale: "test",
			Knobs: map[string]float64{"phys_vregs": v}})
		if code != 200 && code != 202 {
			t.Fatalf("submit phys_vregs=%v: HTTP %d", v, code)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if fin := waitDone(t, ts.URL, id); fin.State != StateDone {
			t.Fatalf("job %s finished %s: %+v", id, fin.State, fin.Error)
		}
	}
	// Three unique configurations, one shared warm-up key.
	if got := metric(t, ts.URL, "tarserved_snapshot_misses_total"); got != 1 {
		t.Errorf("snapshot misses = %v, want 1 (warm-up must simulate exactly once)", got)
	}
	if got := metric(t, ts.URL, "tarserved_snapshot_hits_total"); got != 2 {
		t.Errorf("snapshot hits = %v, want 2", got)
	}
	if got := metric(t, ts.URL, "tarserved_warmup_cycles_saved_total"); got <= 0 {
		t.Errorf("warmup cycles saved = %v, want > 0", got)
	}

	// A later experiment with the same warm-up key finds no flight in
	// progress: its warm-up must come from the store's snapshots namespace.
	job, _ := submit(t, ts.URL, SubmitRequest{Bench: "rndcopy", Config: "T", Scale: "test", Knobs: map[string]float64{"phys_vregs": 80}})
	if done := waitDone(t, ts.URL, job.ID); done.State != StateDone {
		t.Fatalf("follow-up job failed: %+v", done.Error)
	}
	if got := metric(t, ts.URL, "tarserved_snapshot_hits_total"); got != 3 {
		t.Errorf("snapshot hits after follow-up = %v, want 3 (restored from the store)", got)
	}
	if got := metric(t, ts.URL, "tarserved_snapshot_misses_total"); got != 1 {
		t.Errorf("snapshot misses after follow-up = %v, want 1", got)
	}
}

// snapPath is the snapshot namespace's on-disk layout contract under a
// store rooted at dir.
func snapPath(dir, key string) string {
	return filepath.Join(dir, "snapshots", fmt.Sprintf("schema-%d", snapshot.SchemaVersion), key+".snap")
}

// TestDiskSnapshotRoundTripAndRecovery: snapshots persist through the disk
// store, survive a close/reopen (warm start), and damaged files are
// quarantined at open — never served, never fatal.
func TestDiskSnapshotRoundTripAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Put(store.Snapshots, "warmkey0", snapBlob("alpha"))
	db.Put(store.Snapshots, "warmkey1", snapBlob("beta"))
	if st := storeStatus(db.Status()); st.SnapEntries != 2 || st.SnapBytes <= 0 {
		t.Fatalf("status after puts: %+v", st)
	}
	db.Close()

	// Damage one snapshot on disk and drop a truncated alien file plus tmp
	// debris next to it before reopening.
	snapDir := filepath.Dir(snapPath(dir, "warmkey1"))
	path := snapPath(dir, "warmkey1")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snapDir, "short.snap"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snapDir, ".tmp-debris"), []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if blob, ok := db2.Get(store.Snapshots, "warmkey0"); !ok || snapshot.Verify(blob) != nil {
		t.Error("intact snapshot did not survive reopen")
	}
	if _, ok := db2.Get(store.Snapshots, "warmkey1"); ok {
		t.Error("damaged snapshot was served")
	}
	st := storeStatus(db2.Status())
	if st.SnapQuarantined != 2 {
		t.Errorf("quarantined = %d, want 2 (damaged + truncated)", st.SnapQuarantined)
	}
	if st.SnapEntries != 1 {
		t.Errorf("entries after recovery = %d, want 1", st.SnapEntries)
	}
	for _, name := range []string{"warmkey1.snap", "short.snap"} {
		if _, err := os.Stat(filepath.Join(dir, "quarantine", name)); err != nil {
			t.Errorf("%s not in quarantine: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(snapDir, ".tmp-debris")); !os.IsNotExist(err) {
		t.Error("tmp debris survived reopen")
	}
}

// TestDiskSnapshotReadTimeQuarantine: bytes that rot after the open-time
// scan are caught by the per-read verification. The rot lands after a
// reopen, so the fresh memory tier cannot shadow the damaged disk bytes.
func TestDiskSnapshotReadTimeQuarantine(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir, 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1.Put(store.Snapshots, "warmkey0", snapBlob("gamma"))
	s1.Close()

	s2, err := OpenStore(dir, 16, 0, nil) // open-time scan sees intact bytes
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	path := snapPath(dir, "warmkey0")
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(store.Snapshots, "warmkey0"); ok {
		t.Fatal("post-open corruption was served")
	}
	if st := storeStatus(s2.Status()); st.SnapQuarantined != 1 || st.SnapEntries != 0 {
		t.Errorf("status after read-time quarantine: %+v", st)
	}
}

// TestDiskSnapshotRejectsInvalidPut: the store refuses to persist bytes
// that fail envelope verification, and unsafe keys never touch the disk.
func TestDiskSnapshotRejectsInvalidPut(t *testing.T) {
	db, err := OpenStore(t.TempDir(), 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put(store.Snapshots, "badblob0", []byte("not a snapshot"))
	db.Put(store.Snapshots, "../evil", snapBlob("delta"))
	if st := storeStatus(db.Status()); st.SnapEntries != 0 {
		t.Errorf("invalid put was persisted: %+v", st)
	}
}

// TestDiskSnapshotEviction: the snapshot byte cap evicts least-recently-
// accessed snapshots from the disk tier without touching the artifact
// index. (The strict LRA-ordering drill lives in internal/store; here the
// memory tier still holds everything, so the disk-side status and the
// filesystem are the observables.)
func TestDiskSnapshotEviction(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenStore(dir, 16, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put(store.Snapshots, "snapa000", snapBlob("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"))
	db.Put(store.Snapshots, "snapb000", snapBlob("bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"))
	db.Put(store.Snapshots, "snapc000", snapBlob("cccccccccccccccccccccccccccccccccccccccc"))
	st := storeStatus(db.Status())
	if st.SnapEvicted == 0 {
		t.Fatalf("byte cap did not evict: %+v", st)
	}
	if st.SnapBytes > 200 {
		t.Errorf("snapshot bytes %d exceed the cap", st.SnapBytes)
	}
	if _, err := os.Stat(snapPath(dir, "snapa000")); !os.IsNotExist(err) {
		t.Errorf("coldest snapshot still on disk: %v", err)
	}
}
