package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/faults"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Store is the pluggable result store: completed experiments keyed by
// confhash content address within one JobResult schema version. The server
// only ever talks to this interface, whether the implementation is the
// in-memory tier or the memory tier over the crash-safe disk store.
//
// The contract every implementation must honor: Get either returns a result
// whose JobResult encoding is byte-identical to what Put received (the
// content address makes that checkable) or reports a miss — a store may
// lose artifacts (eviction, I/O faults, corruption quarantine) but may
// never serve a wrong or corrupt one.
//
// All three faces (Store, BlobStore, SnapshotStore) are served by one
// generic content-addressed implementation, internal/store, with typed
// namespaces; this typed surface is the adapter that keeps serve call
// sites working in terms of decoded results.
type Store interface {
	// Get returns the stored result for a content key, or a miss. A miss
	// is always safe: the caller re-simulates.
	Get(key string) (*workloads.Result, bool)
	// Put stores a completed result under its content key. Best-effort:
	// a failed put costs durability, never correctness.
	Put(key string, res *workloads.Result)
	// Len reports resident entries (the fastest tier's count for a
	// multi-tier store).
	Len() int
	// Status reports the store's health for /healthz and /metrics.
	Status() StoreStatus
	// Close releases store resources. Idempotent.
	Close() error
}

// BlobStore is the optional second face of a Store: schema-versioned
// aggregate blobs (completed sweep results) keyed by content address,
// alongside the per-experiment artifacts. The built-in stores implement
// it; the server feature-detects with a type assertion so substitute
// stores in tests stay valid without blob support — they just lose sweep
// durability, never correctness (a blob miss replays the sweep through the
// per-experiment store, which dedups the actual simulations).
type BlobStore interface {
	// GetBlob returns the stored blob bytes for a content key, or a miss.
	GetBlob(key string) ([]byte, bool)
	// PutBlob stores blob bytes under a content key. Best-effort, like Put.
	PutBlob(key string, raw []byte)
}

// SnapshotStore is the optional third face of a Store: chip snapshot blobs
// (the internal/snapshot binary encoding) keyed by warm-up content address
// (confhash.WarmupKey). Like BlobStore it is feature-detected with a type
// assertion, so substitute stores without it just lose warm-up reuse —
// every experiment re-simulates its own warm-up, never incorrectly.
//
// The safety contract mirrors the artifact one, with the extra teeth the
// snapshot envelope provides: implementations must never return a blob
// that fails snapshot.Verify — a damaged file is quarantined and reported
// as a miss, and a miss always just costs the warm-up simulation.
type SnapshotStore interface {
	// GetSnapshot returns the stored snapshot blob for a warm-up key, or a
	// miss.
	GetSnapshot(key string) ([]byte, bool)
	// PutSnapshot stores a snapshot blob under a warm-up key. Best-effort.
	PutSnapshot(key string, blob []byte)
}

// StoreStatus is the store-health block reported on /healthz and rendered
// as tarserved_store_* series on /metrics.
type StoreStatus struct {
	// Tier names the configuration: "mem" or "mem+disk".
	Tier string `json:"tier"`
	// MemEntries/DiskEntries count resident artifacts per tier.
	MemEntries  int `json:"mem_entries"`
	DiskEntries int `json:"disk_entries"`
	// DiskBytes is the disk tier's resident artifact bytes.
	DiskBytes int64 `json:"disk_bytes,omitempty"`
	// WarmStart counts artifacts recovered from disk when the store opened
	// — the crash-recovery payoff, visible at a glance after a restart.
	WarmStart int `json:"warm_start,omitempty"`
	// WarmHits counts gets answered by the disk tier after a memory miss
	// (warm-started artifacts being served without re-simulation).
	WarmHits uint64 `json:"warm_hits,omitempty"`
	// Quarantined counts undecodable or schema-skewed files the loader set
	// aside instead of serving or crashing on.
	Quarantined uint64 `json:"quarantined,omitempty"`
	// IOErrors counts disk reads/writes that failed (real or injected).
	IOErrors uint64 `json:"io_errors,omitempty"`
	// Evicted counts artifacts dropped by the disk tier's size cap.
	Evicted uint64 `json:"evicted,omitempty"`
	// SnapEntries/SnapBytes count chip snapshots resident in the disk tier
	// (memory-tier snapshots for a memory-only store) and their bytes.
	SnapEntries int   `json:"snapshot_entries,omitempty"`
	SnapBytes   int64 `json:"snapshot_bytes,omitempty"`
	// SnapQuarantined counts snapshot blobs that failed envelope
	// verification and were set aside; SnapEvicted counts snapshots
	// dropped by the disk tier's snapshot byte cap.
	SnapQuarantined uint64 `json:"snapshot_quarantined,omitempty"`
	SnapEvicted     uint64 `json:"snapshot_evicted,omitempty"`
}

// maxBlobs bounds retained aggregate blobs in the memory tier.
const maxBlobs = 256

// maxSnapBytes bounds retained chip snapshots in the memory tier.
const maxSnapBytes = 256 << 20

// storeConfig is the serve layer's namespace policy set: the schema
// versions, on-disk layout, validators and retention bounds for each
// artifact kind. This — not store code — is what distinguishes results
// from sweeps from snapshots.
func storeConfig(memEntries int) store.Config {
	if memEntries <= 0 {
		memEntries = 4096
	}
	return store.Config{
		store.Results: {
			Schema: SchemaVersion,
			Ext:    ".json",
			Validate: func(key string, raw []byte) error {
				_, err := decodeArtifact(key, raw)
				return err
			},
			ScanOnOpen:     true,
			VerifyOnRead:   true,
			DiskEvict:      true,
			TornWriteChaos: true,
			MemEntries:     memEntries,
			MemLRU:         true,
		},
		// Sweep blobs: validation (schema stamp, key match) belongs to the
		// caller, which owns the blob encoding; retention is a small FIFO
		// in memory and unindexed direct reads on disk.
		store.Sweeps: {
			Schema:     SweepSchemaVersion,
			Subdir:     "sweeps",
			Ext:        ".json",
			MemEntries: maxBlobs,
		},
		// Chip snapshots: envelope-verified on scan, on every disk read and
		// on put; byte-bounded in memory (full memory images) and evicted
		// separately from artifacts on disk.
		store.Snapshots: {
			Schema: snapshot.SchemaVersion,
			Subdir: "snapshots",
			Ext:    ".snap",
			Validate: func(_ string, raw []byte) error {
				return snapshot.Verify(raw)
			},
			ScanOnOpen:    true,
			VerifyOnRead:  true,
			ValidateOnPut: true,
			DiskEvict:     true,
			MemBytes:      maxSnapBytes,
		},
	}
}

// OpenStore builds the production store: the bounded in-memory tier alone
// when dir is empty, or the memory tier as a read-through/write-through
// cache in front of the crash-safe disk store at dir. chaos arms the disk
// tier's fault-injection hooks (nil = none).
func OpenStore(dir string, memEntries int, maxBytes int64, chaos *faults.Config) (Store, error) {
	cfg := storeConfig(memEntries)
	mem := store.NewMem(cfg)
	if dir == "" {
		return &storeAdapter{inner: mem}, nil
	}
	disk, err := store.OpenDisk(dir, maxBytes, faults.New(chaos), cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: disk store: %w", err)
	}
	return &storeAdapter{inner: store.NewTiered(mem, disk)}, nil
}

// newMemStore is the default store when none is configured: memory-only.
func newMemStore(memEntries int) Store {
	return &storeAdapter{inner: store.NewMem(storeConfig(memEntries))}
}

// storeAdapter keeps the serve call sites speaking in decoded results and
// typed faces while the underlying store moves opaque bytes by
// (namespace, key). The encode/decode round trip is byte-stable (the
// cross-backend byte-identity test pins it), so a result surviving the
// adapter is the same artifact the API serves.
type storeAdapter struct {
	inner store.Interface
}

func (a *storeAdapter) Get(key string) (*workloads.Result, bool) {
	raw, ok := a.inner.Get(store.Results, key)
	if !ok {
		return nil, false
	}
	res, err := decodeArtifact(key, raw)
	if err != nil {
		return nil, false
	}
	return res, true
}

func (a *storeAdapter) Put(key string, res *workloads.Result) {
	raw, err := json.Marshal(EncodeResult(key, res))
	if err != nil {
		return
	}
	a.inner.Put(store.Results, key, raw)
}

func (a *storeAdapter) Len() int { return a.inner.Len(store.Results) }

func (a *storeAdapter) GetBlob(key string) ([]byte, bool) {
	return a.inner.Get(store.Sweeps, key)
}

func (a *storeAdapter) PutBlob(key string, raw []byte) {
	a.inner.Put(store.Sweeps, key, raw)
}

func (a *storeAdapter) GetSnapshot(key string) ([]byte, bool) {
	return a.inner.Get(store.Snapshots, key)
}

func (a *storeAdapter) PutSnapshot(key string, blob []byte) {
	a.inner.Put(store.Snapshots, key, blob)
}

func (a *storeAdapter) Status() StoreStatus {
	return translateStatus(a.inner.Status())
}

func (a *storeAdapter) Close() error { return a.inner.Close() }

// translateStatus maps the generic per-namespace store status onto the
// stable wire shape /healthz and /metrics have always reported.
func translateStatus(st store.Status) StoreStatus {
	r := st.NS[store.Results]
	s := st.NS[store.Snapshots]
	out := StoreStatus{Tier: st.Tier, MemEntries: r.MemEntries, IOErrors: st.IOErrors}
	if st.Tier == "mem" {
		// Memory-only store: snapshots are memory-resident.
		out.SnapEntries = s.MemEntries
		out.SnapBytes = s.MemBytes
		out.SnapEvicted = s.MemEvicted
		return out
	}
	out.DiskEntries = r.DiskEntries
	out.DiskBytes = r.DiskBytes
	out.WarmStart = r.WarmStart
	out.WarmHits = r.WarmHits
	out.Quarantined = r.Quarantined
	out.Evicted = r.Evicted
	out.SnapEntries = s.DiskEntries
	out.SnapBytes = s.DiskBytes
	out.SnapQuarantined = s.Quarantined
	out.SnapEvicted = s.Evicted
	return out
}

// decodeArtifact validates one stored artifact end to end: JSON shape,
// schema stamp, self-consistent content key, and a reconstructible result.
// Anything less is quarantine material.
func decodeArtifact(key string, raw []byte) (*workloads.Result, error) {
	var jr JobResult
	if err := json.Unmarshal(raw, &jr); err != nil {
		return nil, fmt.Errorf("undecodable artifact: %w", err)
	}
	if jr.Schema != SchemaVersion {
		return nil, fmt.Errorf("schema skew: artifact is schema %d, this build writes %d", jr.Schema, SchemaVersion)
	}
	if jr.Key != key {
		return nil, fmt.Errorf("key mismatch: file named %s carries key %s", key, jr.Key)
	}
	res, err := resultFromWire(&jr)
	if err != nil {
		return nil, err
	}
	return res, nil
}

var (
	_ Store         = (*storeAdapter)(nil)
	_ BlobStore     = (*storeAdapter)(nil)
	_ SnapshotStore = (*storeAdapter)(nil)
)
