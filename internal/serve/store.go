package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/faults"
	"repro/internal/store"
	"repro/internal/workloads"
)

// storeConfig is the serve layer's store policy: the results schema, the
// validator every disk read runs and the memory tier's entry bound
// (0 = 4096).
func storeConfig(memEntries int) store.Config {
	if memEntries <= 0 {
		memEntries = 4096
	}
	return store.Config{
		Schema: SchemaVersion,
		Validate: func(key string, raw []byte) error {
			_, err := decodeArtifact(key, raw)
			return err
		},
		MemEntries: memEntries,
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

// decodeArtifact validates one stored artifact end to end: JSON shape,
// schema stamp, self-consistent content key, a known scale and a stats
// block. Anything less is quarantine material. It is the disk tier's
// validator; the server itself never decodes a stored result, it serves
// the bytes.
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
	if _, err := workloads.ParseScale(jr.Scale); err != nil {
		return nil, fmt.Errorf("artifact carries bad scale %q: %w", jr.Scale, err)
	}
	if jr.Stats == nil {
		return nil, fmt.Errorf("artifact for %s@%s carries no stats", jr.Bench, jr.Config)
	}
	return &jr, nil
}
