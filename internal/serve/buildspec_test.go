package serve

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/confhash"
)

// The one-build-path contract: resolving a request through BuildSpec and
// then rebuilding the resolved JobSpec (JobSpec.Build, exactly what the
// worker does) must yield the same decorated configuration and the same
// confhash. If these ever diverge, the worker would simulate a different
// experiment than the one the request was keyed under.
func TestBuildSpecCrossPathEquivalence(t *testing.T) {
	req := &SubmitRequest{
		Bench:     "dgemm",
		Config:    "T",
		Scale:     "test",
		Check:     true,
		FaultSeed: 11,
		Knobs:     map[string]float64{"lanes": 8},
	}
	defaults := SpecDefaults{
		DefaultDeadline: 2 * time.Minute,
		MaxDeadline:     5 * time.Minute,
		SampleEvery:     128,
	}

	spec, cfg, scale, err := BuildSpec(req, defaults)
	if err != nil {
		t.Fatalf("BuildSpec: %v", err)
	}
	if spec.DeadlineMs != (2 * time.Minute).Milliseconds() {
		t.Errorf("default deadline not applied: %d", spec.DeadlineMs)
	}
	if spec.SampleEvery != 128 {
		t.Errorf("sampler not applied: every=%d", spec.SampleEvery)
	}

	cfg2, scale2, err := spec.Build()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if scale != scale2 {
		t.Errorf("scale diverged: %v vs %v", scale, scale2)
	}
	k1 := confhash.Key(spec.Bench, scale.String(), cfg)
	k2 := confhash.Key(spec.Bench, scale2.String(), cfg2)
	if k1 != k2 {
		t.Errorf("confhash diverged across build paths: %s vs %s", k1, k2)
	}
	c1, _ := json.Marshal(cfg)
	c2, _ := json.Marshal(cfg2)
	if string(c1) != string(c2) {
		t.Errorf("decorated configs diverged:\n%s\n%s", c1, c2)
	}
}

// The content key places a request's result in the store: it is a pure
// function of the request and the defaults, so resolving the same request
// again yields the same key, and anything that names a different
// experiment — an explicit deadline (part of the integrity envelope),
// another config, a knob — yields a different one.
func TestRouteKeyPlacementIdentity(t *testing.T) {
	defaults := SpecDefaults{DefaultDeadline: 2 * time.Minute, MaxDeadline: 5 * time.Minute}
	key := func(r *SubmitRequest) string {
		t.Helper()
		sp, cfg, scale, err := BuildSpec(r, defaults)
		if err != nil {
			t.Fatalf("BuildSpec: %v", err)
		}
		return confhash.Key(sp.Bench, scale.String(), cfg)
	}
	base := func() *SubmitRequest {
		return &SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test"}
	}
	k0 := key(base())
	if again := key(base()); again != k0 {
		t.Errorf("content key not deterministic: %s vs %s", again, k0)
	}
	withDeadline := base()
	withDeadline.DeadlineMs = 30000
	otherConfig := base()
	otherConfig.Config = "EV8"
	withKnob := base()
	withKnob.Knobs = map[string]float64{"lanes": 8}
	for name, r := range map[string]*SubmitRequest{
		"explicit deadline": withDeadline,
		"other config":      otherConfig,
		"knob":              withKnob,
	} {
		if key(r) == k0 {
			t.Errorf("%s did not change the content key", name)
		}
	}
}
