package serve

import (
	"testing"
	"time"

	"repro/internal/confhash"
)

// resolve is the one request→inputs build: the server's defaults land in the
// decorated configuration the worker runs, and the content key a job is
// filed under is the confhash of exactly that configuration.
func TestResolveBuildsKeyedConfig(t *testing.T) {
	req := &SubmitRequest{
		Bench:     "dgemm",
		Config:    "T",
		Scale:     "test",
		Check:     true,
		FaultSeed: 11,
		Knobs:     map[string]float64{"lanes": 8},
	}
	s := &Server{opts: Options{
		DefaultDeadline: 2 * time.Minute,
		MaxDeadline:     5 * time.Minute,
		SampleEvery:     128,
	}}

	bench, scale, cfg, key, err := s.resolve(req)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if cfg.Deadline != 2*time.Minute {
		t.Errorf("default deadline not applied: %v", cfg.Deadline)
	}
	if cfg.Sampling() != 128 {
		t.Errorf("sampler not applied: every=%d", cfg.Sampling())
	}
	if !cfg.Check || cfg.Faults == nil || cfg.Vbox.Lanes != 8 {
		t.Errorf("request fields not applied: check=%v faults=%v lanes=%d", cfg.Check, cfg.Faults, cfg.Vbox.Lanes)
	}
	if want := confhash.Key(bench, scale.String(), cfg); key != want {
		t.Errorf("key %s is not the confhash of the built config (%s)", key, want)
	}
}

// The content key places a request's result in the store: it is a pure
// function of the request and the defaults, so resolving the same request
// again yields the same key, and anything that names a different
// experiment — an explicit deadline (part of the integrity envelope),
// another config, a knob — yields a different one.
func TestRouteKeyPlacementIdentity(t *testing.T) {
	s := &Server{opts: Options{DefaultDeadline: 2 * time.Minute, MaxDeadline: 5 * time.Minute}}
	key := func(r *SubmitRequest) string {
		t.Helper()
		_, _, _, k, err := s.resolve(r)
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		return k
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
