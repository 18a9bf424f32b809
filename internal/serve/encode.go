package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	// Aliased: this package's Prometheus counter set is a type named
	// metrics.
	chipmetrics "repro/internal/metrics"

	"repro/internal/stats"
	"repro/internal/workloads"
)

// SchemaVersion identifies the JobResult wire layout. It must be bumped on
// any change to the encoding (field added, removed, renamed or reordered):
// the byte-equality contract between CLI artifacts and API responses is only
// meaningful within one schema, and CompareArtifacts refuses to compare
// across versions. Version 1 was the pre-metrics encoding (no schema field,
// no series); version 2 added both; version 3 replaced the ad-hoc error
// bodies with the stable code-based envelope; version 4 added the
// simulator-throughput fields (sim_cycles, sim_wall_ns, mcps).
// Those are the one deliberate crack in the byte-equality contract — wall
// time is a property of the host, not the experiment — so CompareArtifacts
// canonicalises them away before comparing same-schema artifacts.
const SchemaVersion = 4

// JobResult is the canonical result encoding, shared between the server's
// GET /v1/jobs/{id}/result endpoint and cmd/tartables -json. Field order is
// fixed by this struct declaration and encoding/json preserves it, so the
// same experiment produces byte-identical artifacts whether it ran through
// the CLI or the service — the content key makes the equivalence checkable.
type JobResult struct {
	// Schema stamps the encoding version so artifacts from different
	// builds fail comparison loudly instead of diffing byte-by-byte.
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	Bench  string `json:"bench"`
	Config string `json:"config"`
	Scale  string `json:"scale"`

	Cycles  uint64  `json:"cycles,omitempty"`
	OPC     float64 `json:"opc,omitempty"`
	FPC     float64 `json:"fpc,omitempty"`
	MPC     float64 `json:"mpc,omitempty"`
	Other   float64 `json:"other,omitempty"`
	VectPct float64 `json:"vect_pct,omitempty"`

	// SimCycles/SimWallNs/MCPS record the timing simulator's own
	// throughput for this run: simulated cycles, host wall-clock spent
	// inside the simulation loop proper (setup, trace verification and
	// encoding excluded), and the derived millions-of-cycles-per-second.
	// Host-dependent by nature: CompareArtifacts zeroes them before the
	// byte comparison, and cached results replay the figures of the run
	// that actually executed.
	SimCycles uint64  `json:"sim_cycles,omitempty"`
	SimWallNs int64   `json:"sim_wall_ns,omitempty"`
	MCPS      float64 `json:"mcps,omitempty"`

	Stats *stats.Stats `json:"stats,omitempty"`

	// Series carries the cycle-interval sample series when the run was
	// executed with the sampler armed (tartables -sample, tarserved
	// -sample). Absent otherwise, so unsampled artifacts keep the same
	// bytes whether or not the build supports sampling.
	Series *chipmetrics.SeriesDump `json:"series,omitempty"`

	// Err marks a failed cell (CLI artifacts only; the API reports
	// failures through ErrorJSON with an HTTP 422 instead).
	Err string `json:"error,omitempty"`
}

// EncodeResult builds the wire form of one completed experiment.
func EncodeResult(key string, res *workloads.Result) *JobResult {
	opc, fpc, mpc, other := res.OPC()
	return &JobResult{
		Schema:  SchemaVersion,
		Key:     key,
		Bench:   res.Bench,
		Config:  res.Config,
		Scale:   res.Scale.String(),
		Cycles:  res.Stats.Cycles,
		OPC:     opc,
		FPC:     fpc,
		MPC:     mpc,
		Other:   other,
		VectPct: res.Stats.VectorPct(),

		SimCycles: res.SimCycles,
		SimWallNs: res.WallNs,
		MCPS:      res.MCPS(),

		Stats:  res.Stats,
		Series: res.Series,
	}
}

// CompareArtifacts checks that two serialized JobResult artifacts are
// byte-identical, guarding the CLI↔API equivalence contract. It first
// extracts each artifact's schema stamp: artifacts from different encoding
// versions (or from a pre-versioning build, schema 0) produce a loud
// schema-skew error naming both versions, never a misleading byte diff.
// Same-schema artifacts that still differ report a plain mismatch.
func CompareArtifacts(a, b []byte) error {
	sa, err := artifactSchema(a)
	if err != nil {
		return fmt.Errorf("artifact A: %w", err)
	}
	sb, err := artifactSchema(b)
	if err != nil {
		return fmt.Errorf("artifact B: %w", err)
	}
	if sa != sb {
		return fmt.Errorf("schema skew: artifact A is schema %d, artifact B is schema %d (this build writes schema %d) — byte comparison across encodings is meaningless, regenerate both with one build",
			sa, sb, SchemaVersion)
	}
	if sa == SchemaVersion {
		// Current-schema artifacts carry host-dependent throughput fields
		// (sim_cycles, sim_wall_ns, mcps) that two otherwise-identical
		// runs will disagree on; canonicalise them to zero before the
		// byte comparison. Decoding through JobResult is lossless for the
		// schema this build writes, so canonical re-encoding cannot mask
		// a real difference.
		ca, err := canonicalArtifact(a)
		if err != nil {
			return fmt.Errorf("artifact A: %w", err)
		}
		cb, err := canonicalArtifact(b)
		if err != nil {
			return fmt.Errorf("artifact B: %w", err)
		}
		a, b = ca, cb
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("artifacts differ despite matching schema %d", sa)
	}
	return nil
}

// canonicalArtifact re-encodes a current-schema artifact with the
// host-dependent throughput fields zeroed (omitempty drops them), giving
// CompareArtifacts a stable basis.
func canonicalArtifact(raw []byte) ([]byte, error) {
	var jr JobResult
	if err := json.Unmarshal(raw, &jr); err != nil {
		return nil, fmt.Errorf("not a JobResult artifact: %w", err)
	}
	jr.SimCycles, jr.SimWallNs, jr.MCPS = 0, 0, 0
	out, err := json.Marshal(&jr)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// artifactSchema pulls the schema stamp out of one artifact. A missing
// field decodes as 0, identifying a pre-versioning (schema 1) artifact;
// that still skews against this build's encoding, which is the point.
func artifactSchema(raw []byte) (int, error) {
	var v struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, fmt.Errorf("not a JobResult artifact: %w", err)
	}
	return v.Schema, nil
}
