// Package store is the unified content-addressed artifact store behind
// tarserved. One generic interface — Get/Put/Status/Close keyed by
// (namespace, content key) — serves every artifact kind the service keeps
// (results and chip snapshots), so the memory tier, the crash-safe disk
// tier, quarantine and eviction are each written exactly once and every
// artifact kind gets them for free. The serve layer calls it directly;
// what distinguishes the kinds is its per-namespace Policy.
//
// The store moves opaque bytes. What the bytes mean — JobResult JSON,
// snapshot envelopes — belongs to the caller, which injects a
// per-namespace Validate hook so the store can still refuse to serve (or
// persist) bytes it cannot vouch for without importing the encodings.
//
// The contract every implementation honors: a Get either returns bytes
// identical to what some Put stored under that key, or reports a miss. A
// store may lose artifacts (eviction, I/O faults, corruption quarantine)
// but may never serve a wrong or corrupt one. A miss is always safe — the
// caller re-simulates.
package store

// Namespace names an artifact kind. Namespaces are isolated: keys live in
// separate index and directory spaces, and each namespace carries its own
// schema version, layout and retention policy.
type Namespace string

const (
	// Results holds per-experiment JobResult artifacts keyed by confhash.
	Results Namespace = "results"
	// Snapshots holds chip warm-up snapshots keyed by confhash.WarmupKey.
	Snapshots Namespace = "snapshots"
)

// Interface is the one generic content-addressed store API.
type Interface interface {
	// Get returns the stored bytes for a content key, or a miss.
	Get(ns Namespace, key string) ([]byte, bool)
	// Put stores bytes under a content key. Best-effort: a failed put
	// costs durability, never correctness.
	Put(ns Namespace, key string, blob []byte)
	// Status reports store health, per namespace and tier, for /healthz
	// and /metrics.
	Status() Status
	// Close releases store resources. Idempotent.
	Close() error
}

// Policy describes how one namespace behaves across tiers. The caller (the
// serve layer) owns the policy; the store owns the mechanics.
type Policy struct {
	// Schema versions the on-disk directory: artifacts land under
	// Subdir/schema-<Schema>/. Directory-structural isolation means an
	// older build's artifacts are a different directory, never a
	// byte-diff hazard.
	Schema int
	// Subdir is the namespace directory relative to the store root; ""
	// places the schema directory at the root (the results layout).
	Subdir string
	// Ext is the artifact filename extension, e.g. ".json" or ".snap".
	Ext string
	// Validate checks raw bytes against their claimed key. Required: the
	// disk tier's open-time scan quarantines anything it rejects, and every
	// disk read re-runs it, quarantining rot that postdates the scan.
	Validate func(key string, raw []byte) error
	// ValidateOnPut refuses puts whose bytes fail Validate — the store
	// never persists what it would later quarantine.
	ValidateOnPut bool
	// TornWriteChaos opts this namespace into the injector's torn-write
	// fault (a prefix landing at the final path, as if a crash beat the
	// rename protocol), exercising read-time quarantine.
	TornWriteChaos bool

	// Memory-tier policy: an entry bound (MemEntries > 0), a byte bound
	// (MemBytes > 0), or both. Retention is least-recently-used.
	MemEntries int
	MemBytes   int64
}

// Config maps each namespace the caller uses to its policy.
type Config map[Namespace]Policy

// NSStatus is per-namespace health, reported by Status for both tiers.
type NSStatus struct {
	// MemEntries/MemBytes/MemEvicted describe the memory tier.
	MemEntries int
	MemBytes   int64
	MemEvicted uint64
	// DiskEntries/DiskBytes describe the disk tier's resident artifacts.
	DiskEntries int
	DiskBytes   int64
	// WarmStart counts artifacts recovered at open — the crash-recovery
	// payoff, visible at a glance after a restart.
	WarmStart int
	// WarmHits counts gets answered by the disk tier after a memory miss.
	WarmHits uint64
	// Quarantined counts files that failed validation and were set aside
	// instead of served; Evicted counts artifacts dropped by the byte cap.
	Quarantined uint64
	Evicted     uint64
}

// Status is the whole-store health block.
type Status struct {
	// Tier names the composition: "mem", "disk" or "mem+disk".
	Tier string
	// IOErrors counts disk reads/writes that failed (real or injected).
	IOErrors uint64
	// NS holds per-namespace health.
	NS map[Namespace]NSStatus
}

// TmpPrefix marks in-flight temp files of the atomic write protocol;
// anything carrying it at open is crash debris.
const TmpPrefix = ".tmp-"

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
