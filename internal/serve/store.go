package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/faults"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/workloads"
)

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

// maxSnapBytes bounds retained chip snapshots in the memory tier.
const maxSnapBytes = 256 << 20

// storeConfig is the serve layer's namespace policy set: the schema
// versions, on-disk layout, validators and retention bounds for each
// artifact kind. This — not store code — is what distinguishes results
// from snapshots.
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
			TornWriteChaos: true,
			MemEntries:     memEntries,
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
			ValidateOnPut: true,
			MemBytes:      maxSnapBytes,
		},
	}
}

// OpenStore builds the production store: the bounded in-memory tier alone
// when dir is empty, or the memory tier as a read-through/write-through
// cache in front of the crash-safe disk store at dir. memEntries bounds
// the memory tier's results (0 = 4096); chaos arms the disk tier's
// fault-injection hooks (nil = none).
func OpenStore(dir string, memEntries int, maxBytes int64, chaos *faults.Config) (store.Interface, error) {
	cfg := storeConfig(memEntries)
	mem := store.NewMem(cfg)
	if dir == "" {
		return mem, nil
	}
	disk, err := store.OpenDisk(dir, maxBytes, faults.New(chaos), cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: disk store: %w", err)
	}
	return store.NewTiered(mem, disk), nil
}

// putResult stores the JobResult artifact the API serves under its content
// key. Best-effort, like every Put: a failure costs durability, never
// correctness.
func putResult(st store.Interface, jr *JobResult) {
	raw, err := json.Marshal(jr)
	if err != nil {
		return
	}
	st.Put(store.Results, jr.Key, raw)
}

// getResult returns the decoded result stored under a content key, or a
// miss. The encode/decode round trip is byte-stable
// (TestDiskStoreRoundTripAndWarmStart pins it), so a stored result
// re-encodes to the same artifact the API served when it was computed.
func getResult(st store.Interface, key string) (*JobResult, bool) {
	raw, ok := st.Get(store.Results, key)
	if !ok {
		return nil, false
	}
	res, err := decodeArtifact(key, raw)
	return res, err == nil
}

// storeStatus maps the generic per-namespace store status onto the stable
// wire shape /healthz and /metrics report.
func storeStatus(st store.Status) StoreStatus {
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
// schema stamp, self-consistent content key, a known scale and a stats
// block. Anything less is quarantine material.
func decodeArtifact(key string, raw []byte) (*JobResult, error) {
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
	// Stats counters are integers, and floats and series samples
	// round-trip exactly through JSON, so the decoded result re-encodes to
	// the stored bytes.
	if _, err := workloads.ParseScale(jr.Scale); err != nil {
		return nil, fmt.Errorf("artifact carries bad scale %q: %w", jr.Scale, err)
	}
	if jr.Stats == nil {
		return nil, fmt.Errorf("artifact for %s@%s carries no stats", jr.Bench, jr.Config)
	}
	return &jr, nil
}
