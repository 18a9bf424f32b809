package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
)

// serviceSeries is the /metrics surface after one completed in-process
// job: every series name with its declared type. Dashboards, tarload and
// tarbench read these names; the HELP text and the series order are not
// part of the contract.
var serviceSeries = map[string]string{
	"tarserved_jobs_submitted_total":      "counter",
	"tarserved_jobs_rejected_total":       "counter",
	"tarserved_jobs_done_total":           "counter",
	"tarserved_jobs_failed_total":         "counter",
	"tarserved_jobs_wedged_total":         "counter",
	"tarserved_cache_hits_total":          "counter",
	"tarserved_cache_misses_total":        "counter",
	"tarserved_dedup_joined_total":        "counter",
	"tarserved_sims_started_total":        "counter",
	"tarserved_sims_completed_total":      "counter",
	"tarserved_sim_cycles_total":          "counter",
	"tarserved_sim_wall_seconds_total":    "counter",
	"tarserved_snapshot_hits_total":       "counter",
	"tarserved_snapshot_misses_total":     "counter",
	"tarserved_warmup_cycles_saved_total": "counter",
	"tarserved_shed_queue_full_total":     "counter",
	"tarserved_shed_deadline_total":       "counter",
	"tarserved_jobs_queued":               "gauge",
	"tarserved_jobs_running":              "gauge",
	"tarserved_cache_entries":             "gauge",
	"tarserved_job_ewma_seconds":          "gauge",
	"tarserved_store_mem_entries":         "gauge",
	"tarserved_store_disk_entries":        "gauge",
	"tarserved_store_disk_bytes":          "gauge",
	"tarserved_store_warm_start":          "gauge",
	"tarserved_store_warm_hits":           "gauge",
	"tarserved_store_quarantined":         "gauge",
	"tarserved_store_io_errors":           "gauge",
	"tarserved_store_evicted":             "gauge",
	"tarserved_snapshot_entries":          "gauge",
	"tarserved_snapshot_bytes":            "gauge",
	"tarserved_snapshot_quarantined":      "gauge",
	"tarserved_snapshot_evicted":          "gauge",
	"tarserved_job_latency_seconds":       "summary",
	"tarserved_workers_alive":             "gauge",
	"tarserved_workers_queue_depth":       "gauge",

	// Per-experiment summaries, present once an experiment completed.
	"tarserved_experiment_cycles":        "gauge",
	"tarserved_experiment_ipc":           "gauge",
	"tarserved_experiment_mcps":          "gauge",
	"tarserved_experiment_sample_points": "gauge",
	"tarserved_experiment_cache_hits":    "gauge",
}

// TestMetricsAndHealthzSurface pins the service's observable surface: after
// one real in-process job (rndcopy, so the warm-up snapshot path stores a
// chip snapshot too), /metrics declares exactly serviceSeries, and /healthz
// carries exactly the listed top-level and store keys, for a memory-only
// store and a disk-backed one.
func TestMetricsAndHealthzSurface(t *testing.T) {
	healthzKeys := []string{"queue_depth", "shed", "status", "store", "workers_alive"}
	for _, tc := range []struct {
		name      string
		disk      bool
		storeKeys []string
	}{
		{"mem", false, []string{"disk_entries", "mem_entries", "snapshot_bytes", "snapshot_entries", "tier"}},
		{"disk", true, []string{"disk_bytes", "disk_entries", "mem_entries", "snapshot_bytes", "snapshot_entries", "tier"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Workers: 1}
			if tc.disk {
				st, err := OpenStore(t.TempDir(), 16, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				opts.Store = st
			}
			_, ts := newTestServer(t, opts)
			st, _ := submit(t, ts.URL, SubmitRequest{Bench: "rndcopy", Config: "T", Scale: "test"})
			if fin := waitDone(t, ts.URL, st.ID); fin.State != StateDone {
				t.Fatalf("job failed: %+v", fin.Error)
			}

			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			got := map[string]string{}
			for _, line := range strings.Split(string(body), "\n") {
				f := strings.Fields(line)
				if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
					continue
				}
				if _, dup := got[f[2]]; dup {
					t.Errorf("series %s declared twice", f[2])
				}
				got[f[2]] = f[3]
			}
			for name, typ := range serviceSeries {
				if got[name] != typ {
					t.Errorf("series %s: type %q, want %q", name, got[name], typ)
				}
			}
			for name := range got {
				if _, ok := serviceSeries[name]; !ok {
					t.Errorf("unexpected series %s (%s)", name, got[name])
				}
			}

			resp, err = http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var hz map[string]json.RawMessage
			err = json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedKeys(hz); strings.Join(got, ",") != strings.Join(healthzKeys, ",") {
				t.Errorf("healthz keys = %v, want %v", got, healthzKeys)
			}
			var store map[string]json.RawMessage
			if err := json.Unmarshal(hz["store"], &store); err != nil {
				t.Fatal(err)
			}
			if got := sortedKeys(store); strings.Join(got, ",") != strings.Join(tc.storeKeys, ",") {
				t.Errorf("healthz store keys = %v, want %v", got, tc.storeKeys)
			}
		})
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
