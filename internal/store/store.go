// Package store is the content-addressed result store behind tarserved.
// One interface — Get/Put/Status/Close keyed by content key — fronts a
// bounded memory tier, a crash-safe disk tier, or the memory tier over the
// disk tier, so quarantine, eviction and the tiered single flight are each
// written exactly once. The serve layer calls it directly.
//
// The store moves opaque bytes. What the bytes mean (JobResult JSON)
// belongs to the caller, which injects a Validate hook so the store can
// still refuse to serve bytes it cannot vouch for without importing the
// encoding.
//
// The contract every implementation honors: a Get either returns bytes
// identical to what some Put stored under that key, or reports a miss. A
// store may lose artifacts (eviction, I/O faults, corruption quarantine)
// but may never serve a wrong or corrupt one. A miss is always safe — the
// caller re-simulates.
package store

// Interface is the one content-addressed store API.
type Interface interface {
	// Get returns the stored bytes for a content key, or a miss.
	Get(key string) ([]byte, bool)
	// Put stores bytes under a content key. Best-effort: a failed put
	// costs durability, never correctness.
	Put(key string, blob []byte)
	// Status reports store health, per tier, for /healthz and /metrics.
	Status() Status
	// Close releases store resources. Idempotent.
	Close() error
}

// Config is the store's policy. The caller (the serve layer) owns the
// policy; the store owns the mechanics.
type Config struct {
	// Schema versions the on-disk directory: artifacts land under
	// <root>/schema-<Schema>/<key>.json. Directory-structural isolation
	// means an older build's artifacts are a different directory, never a
	// byte-diff hazard.
	Schema int
	// Validate checks raw bytes against their claimed key. Required by the
	// disk tier: its open-time scan quarantines anything it rejects, and
	// every disk read re-runs it, quarantining rot that postdates the scan.
	Validate func(key string, raw []byte) error
	// MemEntries bounds the memory tier, least recently used out first;
	// zero leaves it unbounded.
	MemEntries int
}

// Status is the store's health block, reported on /healthz as is and
// rendered as tarserved_store_* series on /metrics.
type Status struct {
	// Tier names the composition: "mem", "disk" or "mem+disk".
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
	// Quarantined counts files that failed validation and were set aside
	// instead of served.
	Quarantined uint64 `json:"quarantined,omitempty"`
	// IOErrors counts disk reads/writes that failed (real or injected).
	IOErrors uint64 `json:"io_errors,omitempty"`
	// Evicted counts artifacts dropped by the disk tier's byte cap.
	Evicted uint64 `json:"evicted,omitempty"`
}

// TmpPrefix marks in-flight temp files of the atomic write protocol;
// anything carrying it at open is crash debris.
const TmpPrefix = ".tmp-"

// ext is the artifact filename extension.
const ext = ".json"

// SafeKey reports whether a content key can be used as a filename verbatim.
// Real content keys are 32 hex characters; anything outside the safe set
// (or absurdly long) is not persisted rather than risking path tricks.
func SafeKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}
