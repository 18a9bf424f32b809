package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/faults"
)

// DefaultMaxBytes bounds a disk store when no cap is configured: 1 GiB per
// evicting namespace, far beyond any sweep at today's scales.
const DefaultMaxBytes = 1 << 30

// Disk is the crash-safe tier: one file per artifact under
// <root>/<subdir>/schema-<N>/<key><ext>. Durability comes from the write
// protocol (temp file → fsync → rename → directory fsync), schema isolation
// from the directory name, and corruption tolerance from validation: any
// file the namespace's Validate hook rejects is moved to <root>/quarantine/
// and counted — never served, never fatal.
//
// Namespaces with ScanOnOpen are indexed at open (the warm start) and evict
// least-recently-accessed artifacts by a logical access clock against the
// byte cap. Namespaces without it are unindexed: every Get reads the file
// directly, and a missing file is a plain miss.
type Disk struct {
	quarDir  string
	maxBytes int64
	inj      *faults.Injector

	mu       sync.Mutex
	ns       map[Namespace]*diskNS
	clock    int64 // logical access time, bumped per touch
	ioErrors uint64
}

type diskNS struct {
	pol       Policy
	dir       string
	entries   map[string]*diskEntry // indexed namespaces only
	total     int64
	warmStart int
	quarCount uint64
	evicted   uint64
}

type diskEntry struct {
	size  int64
	atime int64
}

// OpenDisk opens (and for indexed namespaces, scans) a single-owner disk
// store at root. Crash debris (orphaned temp files) is removed; everything
// that survives validation is the warm start, served without re-simulation.
// inj arms fault injection (pass faults.New(nil) for none).
func OpenDisk(root string, maxBytes int64, inj *faults.Injector, cfg Config) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	d := &Disk{
		quarDir:  filepath.Join(root, "quarantine"),
		maxBytes: maxBytes,
		inj:      inj,
		ns:       make(map[Namespace]*diskNS, len(cfg)),
	}
	for ns, pol := range cfg {
		sub := root
		if pol.Subdir != "" {
			sub = filepath.Join(root, pol.Subdir)
		}
		d.ns[ns] = &diskNS{
			pol:     pol,
			dir:     filepath.Join(sub, fmt.Sprintf("schema-%d", pol.Schema)),
			entries: make(map[string]*diskEntry),
		}
	}
	if err := os.MkdirAll(d.quarDir, 0o755); err != nil {
		return nil, err
	}
	// The primary namespace directory (results) is created eagerly so the
	// store root exists and is writable from the start; secondary
	// namespaces are created on first Put.
	if s, ok := d.ns[Results]; ok {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, err
		}
	}
	for nsName, s := range d.ns {
		if !s.pol.ScanOnOpen {
			continue
		}
		d.scan(nsName, s)
	}
	return d, nil
}

// scan validates every resident artifact of one indexed namespace at open,
// in file-modification order so the seeded access clock preserves the
// previous process's recency ordering for eviction purposes.
func (d *Disk) scan(nsName Namespace, s *diskNS) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return // no directory yet: first run, nothing to recover
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
			os.Remove(filepath.Join(s.dir, name)) // crash debris
			continue
		}
		if !strings.HasSuffix(name, s.pol.Ext) {
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
		key := strings.TrimSuffix(c.name, s.pol.Ext)
		path := filepath.Join(s.dir, c.name)
		raw, err := os.ReadFile(path)
		if err != nil {
			d.ioErrors++
			continue
		}
		if s.pol.Validate != nil {
			if err := s.pol.Validate(key, raw); err != nil {
				d.quarantineLocked(s, key, path)
				continue
			}
		}
		d.clock++
		s.entries[key] = &diskEntry{size: int64(len(raw)), atime: d.clock}
		s.total += int64(len(raw))
	}
	s.warmStart = len(s.entries)
	d.evictLocked(s)
}

func (s *diskNS) path(key string) string { return filepath.Join(s.dir, key+s.pol.Ext) }

// Get loads one artifact. A read failure is a transient miss; a validation
// failure quarantines the file and misses. Either way the caller
// re-simulates — the store never serves bytes it cannot vouch for.
func (d *Disk) Get(ns Namespace, key string) ([]byte, bool) {
	if !SafeKey(key) {
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.ns[ns]
	if !ok {
		return nil, false
	}
	var e *diskEntry
	if s.pol.ScanOnOpen {
		// Indexed namespace: the index is the source of truth.
		if e, ok = s.entries[key]; !ok {
			return nil, false
		}
	}
	if d.inj.DiskReadError() {
		d.ioErrors++
		return nil, false
	}
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) && !s.pol.ScanOnOpen {
			return nil, false // direct-read miss, not an I/O fault
		}
		d.ioErrors++
		return nil, false
	}
	if s.pol.Validate != nil {
		if err := s.pol.Validate(key, raw); err != nil {
			if e != nil {
				delete(s.entries, key)
				s.total -= e.size
			}
			d.quarantineLocked(s, key, path)
			return nil, false
		}
	}
	if e != nil {
		d.clock++
		e.atime = d.clock
	}
	return raw, true
}

// Put persists one artifact with the atomic write protocol. Content-
// addressed idempotence makes a re-put of a resident key a no-op — exactly
// what the tiered store's single-flight contract needs: an indexed
// namespace checks its index, an unindexed one the file itself. Failures
// (real or injected) cost durability for this one artifact, nothing else.
//
// Put-time validation, the temp-file write and its fsync run without d.mu,
// so Get and Status (every /healthz and /metrics request) never wait behind
// them. The existence re-check, the rename and the index update share one
// critical section: a concurrent Get's quarantine cannot move a file that
// was renamed in after the Get read it, and of two racing Puts of one key
// only the first to reach the lock renames and counts it.
func (d *Disk) Put(ns Namespace, key string, blob []byte) {
	if !SafeKey(key) {
		return
	}
	s, ok := d.ns[ns] // fixed at open; read without the lock
	if !ok {
		return
	}
	if s.pol.ValidateOnPut && s.pol.Validate != nil && s.pol.Validate(key, blob) != nil {
		return
	}
	d.mu.Lock()
	present := d.residentLocked(s, key)
	d.mu.Unlock()
	if present {
		return
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		d.countIOError()
		return
	}
	if d.inj.DiskWriteError() {
		d.countIOError()
		return
	}
	if s.pol.TornWriteChaos && d.inj.TornWrite() {
		d.putTorn(s, key, blob)
		return
	}
	tmp, err := os.CreateTemp(s.dir, TmpPrefix+key+"-*")
	if err != nil {
		d.countIOError()
		return
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(blob)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmpName)
		d.countIOError()
		return
	}
	d.mu.Lock()
	if d.residentLocked(s, key) {
		// A racing Put of the same key renamed first.
		d.mu.Unlock()
		os.Remove(tmpName)
		return
	}
	if err := os.Rename(tmpName, s.path(key)); err != nil {
		d.ioErrors++
		d.mu.Unlock()
		os.Remove(tmpName)
		return
	}
	if s.pol.ScanOnOpen {
		d.clock++
		s.entries[key] = &diskEntry{size: int64(len(blob)), atime: d.clock}
		s.total += int64(len(blob))
		d.evictLocked(s)
	}
	d.mu.Unlock()
	d.syncDir(s.dir)
}

// putTorn is the torn-write chaos path: a prefix lands at the final path,
// as if a crash beat the atomic-rename protocol. The entry is registered so
// the next read exercises the quarantine path.
func (d *Disk) putTorn(s *diskNS, key string, blob []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.residentLocked(s, key) {
		return // a racing Put stored it first
	}
	torn := blob[:len(blob)/2]
	if err := os.WriteFile(s.path(key), torn, 0o644); err != nil {
		d.ioErrors++
		return
	}
	if s.pol.ScanOnOpen {
		d.clock++
		s.entries[key] = &diskEntry{size: int64(len(torn)), atime: d.clock}
		s.total += int64(len(torn))
		d.evictLocked(s)
	}
}

// residentLocked reports whether key is already stored in s: an indexed
// namespace asks its index, an unindexed one the file system. Requires d.mu.
func (d *Disk) residentLocked(s *diskNS, key string) bool {
	if s.pol.ScanOnOpen {
		_, ok := s.entries[key]
		return ok
	}
	_, err := os.Stat(s.path(key))
	return err == nil
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
func (d *Disk) syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}

// quarantineLocked moves a distrusted file aside (removing it if the move
// fails) and counts it. Requires d.mu (or open-time exclusivity).
func (d *Disk) quarantineLocked(s *diskNS, key, path string) {
	dst := filepath.Join(d.quarDir, key+s.pol.Ext)
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.quarCount++
}

// evictLocked enforces the byte cap on one indexed namespace:
// least-recently-accessed artifacts are deleted until the namespace fits.
// Each namespace accounts separately against the same cap, so one kind can
// never push another out. An unindexed namespace counts no bytes, so it
// never evicts. Requires d.mu.
func (d *Disk) evictLocked(s *diskNS) {
	for s.total > d.maxBytes && len(s.entries) > 0 {
		var coldKey string
		var cold *diskEntry
		for k, e := range s.entries {
			if cold == nil || e.atime < cold.atime {
				coldKey, cold = k, e
			}
		}
		delete(s.entries, coldKey)
		s.total -= cold.size
		os.Remove(s.path(coldKey))
		s.evicted++
	}
}

func (d *Disk) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Status{Tier: "disk", IOErrors: d.ioErrors, NS: make(map[Namespace]NSStatus, len(d.ns))}
	for ns, s := range d.ns {
		st.NS[ns] = NSStatus{
			DiskEntries: len(s.entries),
			DiskBytes:   s.total,
			WarmStart:   s.warmStart,
			Quarantined: s.quarCount,
			Evicted:     s.evicted,
		}
	}
	return st
}

// Close is a no-op: every put is already durable at rename time.
func (d *Disk) Close() error { return nil }

var _ Interface = (*Disk)(nil)
