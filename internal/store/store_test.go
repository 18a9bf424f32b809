package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// testConfig mirrors the serve layer's namespace shapes at byte level: an
// entry-bounded "results" namespace with torn-write chaos, and a
// byte-bounded "snapshots" namespace validated on put as well.
func testConfig() Config {
	return Config{
		Results: {
			Schema:         1,
			Ext:            ".json",
			Validate:       validateBlob,
			TornWriteChaos: true,
			MemEntries:     16,
		},
		Snapshots: {
			Schema:        1,
			Subdir:        "snapshots",
			Ext:           ".snap",
			Validate:      validateBlob,
			ValidateOnPut: true,
			MemBytes:      1 << 20,
		},
	}
}

// blobFor builds a self-describing test artifact; validateBlob is the
// matching per-namespace validator (the store-level stand-in for the serve
// layer's decodeArtifact / snapshot.Verify hooks).
func blobFor(key, fill string) []byte {
	return []byte("blob:" + key + ":" + fill)
}

func validateBlob(key string, raw []byte) error {
	if !bytes.HasPrefix(raw, []byte("blob:"+key+":")) {
		return errors.New("blob contradicts its content address")
	}
	return nil
}

func openTestDisk(t *testing.T, dir string, maxBytes int64, inj *faults.Injector) *Disk {
	t.Helper()
	if inj == nil {
		inj = faults.New(nil)
	}
	d, err := OpenDisk(dir, maxBytes, inj, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskStoreRoundTripAndWarmStart: a put survives a process "restart"
// (reopening the store on the same directory) byte-identically — the
// crash-recovery primitive everything else builds on.
func TestDiskStoreRoundTripAndWarmStart(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, 0, nil)
	d.Put(Results, "aaaa1111", blobFor("aaaa1111", "alpha"))
	d.Put(Results, "bbbb2222", blobFor("bbbb2222", "beta"))
	if n := d.Status().NS[Results].DiskEntries; n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	if _, ok := d.Get(Results, "aaaa1111"); !ok {
		t.Fatal("get missed a just-put artifact")
	}

	d2 := openTestDisk(t, dir, 0, nil)
	st := d2.Status()
	r := st.NS[Results]
	if r.WarmStart != 2 || r.DiskEntries != 2 || r.Quarantined != 0 {
		t.Fatalf("warm-start status = %+v", st)
	}
	raw, ok := d2.Get(Results, "aaaa1111")
	if !ok || !bytes.Equal(raw, blobFor("aaaa1111", "alpha")) {
		t.Fatalf("warm-started get = %q ok=%v", raw, ok)
	}
}

// TestDiskStoreEviction: the byte cap evicts least-recently-accessed
// artifacts, and the files actually leave the disk.
func TestDiskStoreEviction(t *testing.T) {
	one := int64(len(blobFor("key0", "xxxx")))
	d := openTestDisk(t, t.TempDir(), 3*one+one/2, nil)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("key%d", i)
		d.Put(Results, key, blobFor(key, "xxxx"))
	}
	d.Get(Results, "key0") // refresh: key1 becomes the coldest
	d.Put(Results, "key3", blobFor("key3", "xxxx"))
	r := d.Status().NS[Results]
	if r.Evicted != 1 || r.DiskEntries != 3 {
		t.Fatalf("eviction status = %+v", r)
	}
	if _, ok := d.Get(Results, "key1"); ok {
		t.Fatal("coldest entry survived the cap")
	}
	if _, ok := d.Get(Results, "key0"); !ok {
		t.Fatal("recently-accessed entry was evicted")
	}
	if _, err := os.Stat(d.ns[Results].path("key1")); !os.IsNotExist(err) {
		t.Fatalf("evicted artifact still on disk: %v", err)
	}
}

// TestDiskStoreNamespaceIsolation: the same key in different namespaces
// holds different bytes, and eviction pressure in one namespace cannot
// touch another (separate byte accounting against the shared cap).
func TestDiskStoreNamespaceIsolation(t *testing.T) {
	d := openTestDisk(t, t.TempDir(), 0, nil)
	d.Put(Results, "cafe0123", blobFor("cafe0123", "result"))
	d.Put(Snapshots, "cafe0123", blobFor("cafe0123", "snapshot"))
	r, _ := d.Get(Results, "cafe0123")
	s, _ := d.Get(Snapshots, "cafe0123")
	if bytes.Equal(r, s) {
		t.Fatal("namespaces are not isolated")
	}
	st := d.Status()
	if st.NS[Results].DiskEntries != 1 || st.NS[Snapshots].DiskEntries != 1 {
		t.Fatalf("entries: results=%d snapshots=%d", st.NS[Results].DiskEntries, st.NS[Snapshots].DiskEntries)
	}
}

// TestDiskStoreCorruptionQuarantine plants corrupt files on disk and
// asserts the loader quarantines them at open — counted, moved aside,
// never part of the warm start, never served — and that rot landing after
// the open is caught by read-time verification.
func TestDiskStoreCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, 0, nil)
	d.Put(Results, "good0000", blobFor("good0000", "fine"))
	d.Put(Results, "good1111", blobFor("good1111", "fine"))
	resDir := d.ns[Results].dir
	bad := map[string][]byte{
		"bad_keyskew":  blobFor("otherkey", "fine"), // valid bytes, wrong address
		"bad_garbage":  []byte("\x00\xffnot a blob"),
		"bad_empty":    nil,
		"bad_truncate": []byte("blo"),
	}
	for key, raw := range bad {
		if err := os.WriteFile(filepath.Join(resDir, key+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Tmp debris from a "crashed" writer must be removed, not quarantined.
	if err := os.WriteFile(filepath.Join(resDir, TmpPrefix+"debris"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openTestDisk(t, dir, 0, nil)
	r := d2.Status().NS[Results]
	if r.Quarantined != uint64(len(bad)) || r.WarmStart != 2 || r.DiskEntries != 2 {
		t.Fatalf("status after corrupt open = %+v, want %d quarantined / 2 warm", r, len(bad))
	}
	for key := range bad {
		if _, ok := d2.Get(Results, key); ok {
			t.Fatalf("corrupt artifact %q was served", key)
		}
	}
	if _, ok := d2.Get(Results, "good0000"); !ok {
		t.Fatal("valid artifact lost in the corrupt sweep")
	}
	if names, _ := os.ReadDir(filepath.Join(dir, "quarantine")); len(names) != len(bad) {
		t.Fatalf("quarantine holds %d files, want %d", len(names), len(bad))
	}
	if _, err := os.Stat(filepath.Join(resDir, TmpPrefix+"debris")); !os.IsNotExist(err) {
		t.Error("tmp debris survived the open")
	}

	// Post-open rot: caught at read time, quarantined then, not served.
	if err := os.WriteFile(filepath.Join(resDir, "good1111.json"), []byte("blo"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Get(Results, "good1111"); ok {
		t.Fatal("post-open corruption was served")
	}
	if got := d2.Status().NS[Results].Quarantined; got != uint64(len(bad))+1 {
		t.Fatalf("read-time quarantine not counted: %d", got)
	}
}

// TestDiskStoreValidateOnPut: a namespace with put-time validation refuses
// bytes it would later quarantine, and unsafe keys never touch the disk.
func TestDiskStoreValidateOnPut(t *testing.T) {
	d := openTestDisk(t, t.TempDir(), 0, nil)
	d.Put(Snapshots, "badblob0", []byte("not a valid blob"))
	d.Put(Snapshots, "../evil", blobFor("../evil", "x"))
	if n := d.Status().NS[Snapshots].DiskEntries; n != 0 {
		t.Fatalf("invalid put was persisted: %d entries", n)
	}
}

// TestDiskSnapshotNamespaceEviction: the snapshot-style namespace evicts
// least-recently-accessed entries against the byte cap without touching
// the results namespace.
func TestDiskSnapshotNamespaceEviction(t *testing.T) {
	pad := make([]byte, 60)
	for i := range pad {
		pad[i] = 'a'
	}
	one := int64(len(blobFor("snapa000", string(pad))))
	d := openTestDisk(t, t.TempDir(), 2*one+one/2, nil)
	d.Put(Results, "keepme00", blobFor("keepme00", "small"))
	for _, key := range []string{"snapa000", "snapb000", "snapc000"} {
		d.Put(Snapshots, key, blobFor(key, string(pad)))
	}
	s := d.Status().NS[Snapshots]
	if s.Evicted == 0 {
		t.Fatalf("byte cap did not evict: %+v", s)
	}
	if s.DiskBytes > 2*one+one/2 {
		t.Errorf("snapshot bytes %d exceed the cap", s.DiskBytes)
	}
	if _, ok := d.Get(Snapshots, "snapa000"); ok {
		t.Error("coldest snapshot survived eviction")
	}
	if _, ok := d.Get(Results, "keepme00"); !ok {
		t.Error("snapshot pressure evicted a result")
	}
}

// TestTieredStoreSingleFlight: concurrent Put and Get traffic on one key
// (the exact shape of a result completing while a warm-start load is in
// flight) must neither drop the artifact nor tear it, and the disk tier
// ends with exactly one copy. Run under -race in CI.
func TestTieredStoreSingleFlight(t *testing.T) {
	disk := openTestDisk(t, t.TempDir(), 0, nil)
	ts := NewTiered(NewMem(testConfig()), disk)
	defer ts.Close()
	const key = "cafe0123"
	blob := blobFor(key, "payload")

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				if i%2 == 0 {
					ts.Put(Results, key, blob)
				} else if got, ok := ts.Get(Results, key); ok && !bytes.Equal(got, blob) {
					t.Errorf("torn read: %q", got)
				}
			}
		}(i)
	}
	wg.Wait()
	got, ok := ts.Get(Results, key)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("artifact lost after concurrent traffic: %q ok=%v", got, ok)
	}
	if n := disk.Status().NS[Results].DiskEntries; n != 1 {
		t.Fatalf("disk tier holds %d entries, want exactly 1", n)
	}
	if st := ts.Status(); st.Tier != "mem+disk" || st.IOErrors != 0 {
		t.Fatalf("tiered status = %+v", st)
	}
}

// TestChaosDiskStore runs the disk tier under the DiskChaos campaign
// (injected read/write errors and torn writes) and asserts the robustness
// contract: every Get is either the exact stored bytes or a structural
// miss — never corrupt bytes, never a panic — while the injected faults
// show up in the status counters.
func TestChaosDiskStore(t *testing.T) {
	d := openTestDisk(t, t.TempDir(), 0, faults.New(faults.DiskChaos(7)))
	served, missed := 0, 0
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("chaos%02d", i)
		blob := blobFor(key, "payload")
		d.Put(Results, key, blob)
		raw, ok := d.Get(Results, key)
		if !ok {
			missed++
			continue
		}
		served++
		if !bytes.Equal(raw, blob) {
			t.Fatalf("chaos store served a corrupt artifact: %q", raw)
		}
	}
	r := d.Status()
	if r.IOErrors == 0 {
		t.Fatalf("chaos campaign injected no I/O errors: %+v (served=%d missed=%d)", r, served, missed)
	}
	if r.NS[Results].Quarantined == 0 {
		t.Fatalf("no torn write reached the quarantine path: %+v", r)
	}
	if served == 0 {
		t.Fatal("chaos store never served anything — campaign too hot to be a test")
	}
}

// ---- memory tier policies ----

// TestMemEntryBound: entry-bounded namespaces evict the least recently used
// entry past the bound, and Get refreshes recency.
func TestMemEntryBound(t *testing.T) {
	m := NewMem(Config{Results: {MemEntries: 2}})
	m.Put(Results, "a", []byte("1"))
	m.Put(Results, "b", []byte("2"))
	m.Get(Results, "a") // refresh: b becomes coldest
	m.Put(Results, "c", []byte("3"))
	if _, ok := m.Get(Results, "b"); ok {
		t.Fatal("b survived past the bound")
	}
	if _, ok := m.Get(Results, "a"); !ok {
		t.Fatal("recently-used a was evicted")
	}
	if n := m.Status().NS[Results].MemEntries; n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
}

// TestMemByteBound: byte-bounded namespaces evict the least recently used
// entry past the cap, and a single blob larger than the cap is not retained
// at all.
func TestMemByteBound(t *testing.T) {
	m := NewMem(Config{Snapshots: {MemBytes: 10}})
	m.Put(Snapshots, "big", make([]byte, 11))
	if _, ok := m.Get(Snapshots, "big"); ok {
		t.Fatal("oversized blob was retained")
	}
	m.Put(Snapshots, "a", make([]byte, 4))
	m.Put(Snapshots, "b", make([]byte, 4))
	m.Put(Snapshots, "c", make([]byte, 4))
	if _, ok := m.Get(Snapshots, "a"); ok {
		t.Fatal("byte cap did not evict the oldest")
	}
	st := m.Status().NS[Snapshots]
	if st.MemBytes > 10 || st.MemEvicted == 0 {
		t.Fatalf("byte-bound status = %+v", st)
	}
	// Replacing a resident key adjusts bytes instead of double-counting.
	m.Put(Snapshots, "b", make([]byte, 6))
	if st := m.Status().NS[Snapshots]; st.MemBytes > 10 {
		t.Fatalf("replace double-counted bytes: %+v", st)
	}
}

// TestMemUnconfiguredNamespace: an unconfigured namespace retains nothing
// rather than growing unbounded.
func TestMemUnconfiguredNamespace(t *testing.T) {
	m := NewMem(Config{Results: {MemEntries: 2}})
	m.Put(Snapshots, "a", []byte("1"))
	if _, ok := m.Get(Snapshots, "a"); ok {
		t.Fatal("unconfigured namespace retained data")
	}
	if n := m.Status().NS[Snapshots].MemEntries; n != 0 {
		t.Fatal("unconfigured namespace has entries")
	}
}

// TestDiskStorePutDoesNotBlockStatus: a put whose validation, write or
// fsync is slow must not stall the health and metrics paths. A namespace
// whose Validate parks one key's put leaves Status() and a Get of another
// key answering; once released, the parked put lands.
func TestDiskStorePutDoesNotBlockStatus(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var park sync.Once // the put's validation parks; later reads do not
	cfg := testConfig()
	pol := cfg[Snapshots]
	pol.Validate = func(key string, raw []byte) error {
		if key == "parked00" {
			park.Do(func() {
				close(entered)
				<-release
			})
		}
		return validateBlob(key, raw)
	}
	cfg[Snapshots] = pol
	d, err := OpenDisk(t.TempDir(), 0, faults.New(nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(Results, "other000", blobFor("other000", "x"))

	putDone := make(chan struct{})
	go func() {
		defer close(putDone)
		d.Put(Snapshots, "parked00", blobFor("parked00", "x"))
	}()
	<-entered
	answered := make(chan bool)
	go func() {
		d.Status()
		_, ok := d.Get(Results, "other000")
		answered <- ok
	}()
	select {
	case ok := <-answered:
		if !ok {
			t.Error("Get of another key missed while a put was parked")
		}
	case <-time.After(5 * time.Second):
		t.Error("Status and Get waited behind a parked put")
	}
	close(release)
	<-putDone
	if _, ok := d.Get(Snapshots, "parked00"); !ok {
		t.Error("the parked put was not persisted once released")
	}
}

// TestDiskStoreRacingPutsCountOnce: concurrent puts of one key write one
// file, count its bytes once and leave no temp files behind.
func TestDiskStoreRacingPutsCountOnce(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir, 0, nil)
	const key = "race0000"
	blob := blobFor(key, "payload")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Put(Snapshots, key, blob)
		}()
	}
	wg.Wait()
	st := d.Status().NS[Snapshots]
	if st.DiskEntries != 1 || st.DiskBytes != int64(len(blob)) {
		t.Errorf("8 racing puts of one key: %d entries, %d bytes; want 1 entry of %d bytes",
			st.DiskEntries, st.DiskBytes, len(blob))
	}
	names, err := os.ReadDir(filepath.Join(dir, "snapshots", "schema-1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != key+".snap" {
		t.Errorf("namespace directory holds %d files, want only %s.snap", len(names), key)
	}
}

// parkingValidate returns a validator that parks the first validation of
// key made after arm is closed, until release is closed; entered is closed
// when it parks. Every other call validates at once.
func parkingValidate(key string, arm, entered, release chan struct{}) func(string, []byte) error {
	var parked atomic.Bool
	return func(k string, raw []byte) error {
		select {
		case <-arm:
			if k == key && parked.CompareAndSwap(false, true) {
				close(entered)
				<-release
			}
		default:
		}
		return validateBlob(k, raw)
	}
}

// TestDiskStoreGetDoesNotBlockStatus: a read whose validation is slow (a
// snapshot read verifies the whole blob) must not stall the health and
// metrics paths. While a Get parks in Validate, Status() and a Put of
// another key answer; once released, the parked Get is served.
func TestDiskStoreGetDoesNotBlockStatus(t *testing.T) {
	arm, entered, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	cfg := testConfig()
	pol := cfg[Snapshots]
	pol.Validate = parkingValidate("parked00", arm, entered, release)
	cfg[Snapshots] = pol
	d, err := OpenDisk(t.TempDir(), 0, faults.New(nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(Snapshots, "parked00", blobFor("parked00", "x"))
	close(arm)

	got := make(chan bool)
	go func() {
		_, ok := d.Get(Snapshots, "parked00")
		got <- ok
	}()
	<-entered
	answered := make(chan struct{})
	go func() {
		d.Status()
		d.Put(Results, "other000", blobFor("other000", "x"))
		close(answered)
	}()
	select {
	case <-answered:
	case <-time.After(5 * time.Second):
		t.Error("Status and a Put of another key waited behind a parked Get")
	}
	close(release)
	if !<-got {
		t.Error("the parked Get missed once released")
	}
	<-answered
	if _, ok := d.Get(Results, "other000"); !ok {
		t.Error("the Put made while a Get was parked was not persisted")
	}
}

// TestDiskStoreGetSparesRacingPut: a Get that read a corrupt file
// quarantines it only if the index still holds the entry it read. Here a
// second Get quarantines the rotten file first and a Put stores a good one
// under the same key while the first Get is parked in Validate; releasing
// it must leave the good file served.
func TestDiskStoreGetSparesRacingPut(t *testing.T) {
	arm, entered, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	cfg := testConfig()
	pol := cfg[Results]
	pol.Validate = parkingValidate("rot00000", arm, entered, release)
	cfg[Results] = pol
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0, faults.New(nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const key = "rot00000"
	d.Put(Results, key, blobFor(key, "x"))
	path := d.ns[Results].path(key)
	if err := os.WriteFile(path, []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	close(arm)

	first := make(chan bool)
	go func() {
		_, ok := d.Get(Results, key)
		first <- ok
	}()
	<-entered
	if _, ok := d.Get(Results, key); ok {
		t.Fatal("a rotten file was served")
	}
	good := blobFor(key, "good")
	d.Put(Results, key, good)
	close(release)
	if <-first {
		t.Error("the parked Get served the rotten bytes it read")
	}
	raw, ok := d.Get(Results, key)
	if !ok || !bytes.Equal(raw, good) {
		t.Fatalf("after the race Get = %q, %v; want the good blob the racing Put stored", raw, ok)
	}
	if q := d.Status().NS[Results].Quarantined; q != 1 {
		t.Errorf("%d files quarantined, want the one rotten file", q)
	}
}
