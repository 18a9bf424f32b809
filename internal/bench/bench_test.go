package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAppendKeepsOlderRowFields: a row written by an older build carries
// fields this build does not define; appending a new row must leave them in
// the file.
func TestAppendKeepsOlderRowFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	old := `{"schema": 1, "rows": [{"label": "old", "engine": "wheel",
		"kernels": [{"name": "rndcopy", "mcps": 2, "speedup": 0.9}]}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, &Row{Label: "new", CalibMs: 20}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rows) != 2 {
		t.Fatalf("%d rows after Append, want 2", len(doc.Rows))
	}
	if doc.Rows[0]["engine"] != "wheel" || !strings.Contains(string(data), `"speedup": 0.9`) {
		t.Errorf("Append dropped the older row's fields:\n%s", data)
	}
	if doc.Rows[1]["label"] != "new" || doc.Rows[1]["calib_ms"] != 20.0 {
		t.Errorf("appended row = %v, want label new and calib_ms 20", doc.Rows[1])
	}
}

// TestCheckRegressionCalibrated: kernels are gated on mcps × calib_ms
// against the last committed row that recorded calib_ms, so a slower host
// passes, a slower simulator fails, and uncalibrated rows are skipped.
func TestCheckRegressionCalibrated(t *testing.T) {
	row := func(label string, calibMs, mcps float64) Row {
		return Row{Label: label, CalibMs: calibMs, Kernels: []KernelResult{{Name: "rndcopy", MCPS: mcps}}}
	}
	committed := &File{Rows: []Row{
		row("calibrated", 20, 2.0),  // 40 Mcycles per calibration loop
		row("uncalibrated", 0, 9.0), // predates calib_ms: skipped
	}}
	slowHost := row("fresh", 40, 1.0) // half the speed on a half-speed host
	if err := CheckRegression(committed, &slowHost); err != nil {
		t.Errorf("slower host flagged as a regression: %v", err)
	}
	slowSim := row("fresh", 20, 1.5) // 30 vs 40: a 25% loss
	err := CheckRegression(committed, &slowSim)
	if err == nil || !strings.Contains(err.Error(), "rndcopy") {
		t.Errorf("25%% calibrated slowdown passed the gate: err = %v", err)
	}
	if err := CheckRegression(&File{Rows: []Row{row("uncalibrated", 0, 9.0)}}, &slowSim); err != nil {
		t.Errorf("no calibrated baseline, yet the kernels were gated: %v", err)
	}
}

// TestCheckRegressionKeysByConfig: a kernel is gated against the same
// benchmark on the same configuration, and a kernel the baseline row lacks
// passes until a row that measured it is committed.
func TestCheckRegressionKeysByConfig(t *testing.T) {
	committed := &File{Rows: []Row{{Label: "base", CalibMs: 20, Kernels: []KernelResult{
		{Name: "linpack100", Config: "EV8", MCPS: 1.0},
		{Name: "rndcopy", Config: "T", MCPS: 2.0},
	}}}}
	fresh := func(ks ...KernelResult) *Row { return &Row{Label: "fresh", CalibMs: 20, Kernels: ks} }
	if err := CheckRegression(committed, fresh(KernelResult{Name: "linpack100", Config: "T", MCPS: 0.1})); err != nil {
		t.Errorf("linpack100 on T was gated against linpack100 on EV8: %v", err)
	}
	err := CheckRegression(committed, fresh(KernelResult{Name: "linpack100", Config: "EV8", MCPS: 0.7}))
	if err == nil || !strings.Contains(err.Error(), "linpack100 on EV8") {
		t.Errorf("30%% slowdown of linpack100 on EV8 passed the gate: err = %v", err)
	}
	if err := CheckRegression(committed, fresh(KernelResult{Name: "swim", Config: "EV8", MCPS: 0.01})); err != nil {
		t.Errorf("a kernel absent from the baseline row was gated: %v", err)
	}
	for _, k := range Kernels {
		if k.Name == "linpack100" && k.Config == "EV8" {
			return
		}
	}
	t.Error("the measured set has no scalar-core kernel (linpack100 on EV8)")
}
