package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/faults"
)

// DefaultMaxBytes bounds a disk store when no cap is configured: 1 GiB,
// far beyond any sweep at today's scales.
const DefaultMaxBytes = 1 << 30

// Disk is the crash-safe tier: one file per artifact under
// <root>/schema-<N>/<key>.json. Durability comes from the write protocol
// (temp file → fsync → rename → directory fsync), schema isolation from the
// directory name, and corruption tolerance from validation: any file the
// Validate hook rejects is moved to <root>/quarantine/ and counted — never
// served, never fatal. Nothing else under the root is read or touched.
//
// The schema directory is indexed at open (the warm start), gets are served
// from that index, and the least-recently-accessed artifacts are evicted by
// a logical access clock against the byte cap.
type Disk struct {
	dir      string
	quarDir  string
	maxBytes int64
	inj      *faults.Injector
	validate func(key string, raw []byte) error

	mu        sync.Mutex
	entries   map[string]*diskEntry
	total     int64
	clock     int64 // logical access time, bumped per touch
	warmStart int
	quarCount uint64
	evicted   uint64
	ioErrors  uint64
}

type diskEntry struct {
	size  int64
	atime int64
}

// OpenDisk opens and scans a single-owner disk store at root. Crash debris
// (orphaned temp files) is removed; everything that survives validation is
// the warm start, served without re-simulation. inj arms fault injection
// (pass faults.New(nil) for none).
func OpenDisk(root string, maxBytes int64, inj *faults.Injector, cfg Config) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	d := &Disk{
		dir:      filepath.Join(root, fmt.Sprintf("schema-%d", cfg.Schema)),
		quarDir:  filepath.Join(root, "quarantine"),
		maxBytes: maxBytes,
		inj:      inj,
		validate: cfg.Validate,
		entries:  make(map[string]*diskEntry),
	}
	for _, dir := range []string{d.quarDir, d.dir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	d.scan()
	return d, nil
}

// scan validates every resident artifact at open, in file-modification
// order so the seeded access clock preserves the previous process's
// recency ordering for eviction purposes.
func (d *Disk) scan() {
	names, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	type candidate struct {
		name string
		mod  int64
	}
	var cands []candidate
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasPrefix(name, TmpPrefix) {
			os.Remove(filepath.Join(d.dir, name)) // crash debris
			continue
		}
		if !strings.HasSuffix(name, ext) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		cands = append(cands, candidate{name: name, mod: info.ModTime().UnixNano()})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mod < cands[j].mod })
	for _, c := range cands {
		key := strings.TrimSuffix(c.name, ext)
		path := filepath.Join(d.dir, c.name)
		raw, err := os.ReadFile(path)
		if err != nil {
			d.ioErrors++
			continue
		}
		if err := d.validate(key, raw); err != nil {
			d.quarantineLocked(key, path)
			continue
		}
		d.clock++
		d.entries[key] = &diskEntry{size: int64(len(raw)), atime: d.clock}
		d.total += int64(len(raw))
	}
	d.warmStart = len(d.entries)
	d.evictLocked()
}

func (d *Disk) path(key string) string { return filepath.Join(d.dir, key+ext) }

// Get loads one artifact. A read failure is a transient miss; a validation
// failure quarantines the file and misses. Either way the caller
// re-simulates — the store never serves bytes it cannot vouch for.
//
// The read and the validation run without d.mu, so Status and Put never
// wait behind them. The lock is taken to look the entry up in the index
// and again to record the access or to quarantine a file that failed
// validation, and only if the index still holds the entry that was read. A
// Put that replaced it meanwhile stored a good file, and that is never
// moved aside.
func (d *Disk) Get(key string) ([]byte, bool) {
	if !SafeKey(key) {
		return nil, false
	}
	d.mu.Lock()
	e, ok := d.entries[key]
	if !ok {
		d.mu.Unlock()
		return nil, false
	}
	if d.inj.DiskReadError() {
		d.ioErrors++
		d.mu.Unlock()
		return nil, false
	}
	d.mu.Unlock()
	path := d.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		d.countIOError()
		return nil, false
	}
	valid := d.validate(key, raw) == nil
	d.mu.Lock()
	defer d.mu.Unlock()
	if valid {
		d.clock++
		e.atime = d.clock
		return raw, true
	}
	if d.entries[key] == e {
		delete(d.entries, key)
		d.total -= e.size
		d.quarantineLocked(key, path)
	}
	return nil, false
}

// Put persists one artifact with the atomic write protocol. Content-
// addressed idempotence makes a re-put of a key already in the index a
// no-op — exactly what the tiered store's single-flight contract needs.
// Failures (real or injected) cost durability for this one artifact,
// nothing else.
//
// The temp-file write and its fsync run without d.mu, so Get and Status
// (every /healthz and /metrics request) never wait behind them. The
// existence re-check, the rename and the index update share one critical
// section: a concurrent Get's quarantine cannot move a file that was
// renamed in after the Get read it, and of two racing Puts of one key only
// the first to reach the lock renames and counts it.
func (d *Disk) Put(key string, blob []byte) {
	if !SafeKey(key) {
		return
	}
	d.mu.Lock()
	_, present := d.entries[key]
	d.mu.Unlock()
	if present {
		return
	}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		d.countIOError()
		return
	}
	if d.inj.DiskWriteError() {
		d.countIOError()
		return
	}
	if d.inj.TornWrite() {
		d.putTorn(key, blob)
		return
	}
	tmpName, err := writeTemp(d.dir, key, blob)
	if err != nil {
		d.countIOError()
		return
	}
	d.mu.Lock()
	if _, ok := d.entries[key]; ok {
		// A racing Put of the same key renamed first.
		d.mu.Unlock()
		os.Remove(tmpName)
		return
	}
	if err := os.Rename(tmpName, d.path(key)); err != nil {
		d.ioErrors++
		d.mu.Unlock()
		os.Remove(tmpName)
		return
	}
	d.indexLocked(key, int64(len(blob)))
	d.mu.Unlock()
	d.syncDir()
}

// writeTemp writes blob to a new temp file in dir and syncs it, returning
// the file's name; on failure it leaves no file behind. It is Put's slow
// half, run without d.mu, and a variable so a test can park it there.
var writeTemp = func(dir, key string, blob []byte) (string, error) {
	tmp, err := os.CreateTemp(dir, TmpPrefix+key+"-*")
	if err != nil {
		return "", err
	}
	_, werr := tmp.Write(blob)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return tmp.Name(), nil
}

// putTorn is the torn-write chaos path: a prefix lands at the final path,
// as if a crash beat the atomic-rename protocol. The entry is registered so
// the next read exercises the quarantine path.
func (d *Disk) putTorn(key string, blob []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[key]; ok {
		return // a racing Put stored it first
	}
	torn := blob[:len(blob)/2]
	if err := os.WriteFile(d.path(key), torn, 0o644); err != nil {
		d.ioErrors++
		return
	}
	d.indexLocked(key, int64(len(torn)))
}

// indexLocked records a file just stored under key as the most recently
// accessed entry and evicts past the byte cap. Requires d.mu.
func (d *Disk) indexLocked(key string, size int64) {
	d.clock++
	d.entries[key] = &diskEntry{size: size, atime: d.clock}
	d.total += size
	d.evictLocked()
}

// countIOError counts one failed disk read or write.
func (d *Disk) countIOError() {
	d.mu.Lock()
	d.ioErrors++
	d.mu.Unlock()
}

// syncDir flushes the directory entry so the rename itself is durable.
// Best-effort: a failure here narrows the crash window, it does not corrupt
// anything (the artifact file is already synced).
func (d *Disk) syncDir() {
	if f, err := os.Open(d.dir); err == nil {
		f.Sync()
		f.Close()
	}
}

// quarantineLocked moves a distrusted file aside (removing it if the move
// fails) and counts it. Requires d.mu (or open-time exclusivity).
func (d *Disk) quarantineLocked(key, path string) {
	if err := os.Rename(path, filepath.Join(d.quarDir, key+ext)); err != nil {
		os.Remove(path)
	}
	d.quarCount++
}

// evictLocked enforces the byte cap: least-recently-accessed artifacts are
// deleted until the store fits. Requires d.mu.
func (d *Disk) evictLocked() {
	for d.total > d.maxBytes && len(d.entries) > 0 {
		var coldKey string
		var cold *diskEntry
		for k, e := range d.entries {
			if cold == nil || e.atime < cold.atime {
				coldKey, cold = k, e
			}
		}
		delete(d.entries, coldKey)
		d.total -= cold.size
		os.Remove(d.path(coldKey))
		d.evicted++
	}
}

func (d *Disk) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Status{
		Tier:        "disk",
		DiskEntries: len(d.entries),
		DiskBytes:   d.total,
		WarmStart:   d.warmStart,
		Quarantined: d.quarCount,
		IOErrors:    d.ioErrors,
		Evicted:     d.evicted,
	}
}

// Close is a no-op: every put is already durable at rename time.
func (d *Disk) Close() error { return nil }

var _ Interface = (*Disk)(nil)
