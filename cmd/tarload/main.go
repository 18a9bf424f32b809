// Command tarload is the load generator for tarserved: it hammers the job
// API with overlapping submissions drawn from a benchmark × configuration
// set, waits for every job to finish, and reports client-side throughput
// and latency next to the server's own cache counters.
//
// Usage:
//
//	tarload -addr http://127.0.0.1:8077 -c 32 -n 128 \
//	        -benches streams_copy -configs EV8,EV8+,T,T4 -scale test
//
// -addr is the server's base URL; a bare host:port means http://host:port.
//
// Because the server deduplicates by content address, a -n much larger than
// the distinct set size is the interesting regime: the run above performs
// exactly 4 simulations no matter how many of the 128 requests overlap.
// -out writes a machine-readable JSON report, a record of the smoke run;
// tarbench's serve-cold and serve-replay workloads measure the service's
// throughput.
//
// -sweep switches to sweep-shaped traffic: instead of hammering /v1/jobs,
// tarload posts one design-space sweep (axes like
// "lanes=8,16;l2_kb=4096,16384" over the -benches list, based on the first
// -configs entry) to /v1/sweeps, follows per-point progress, and records a
// Sweeps section in the report — points, unique simulations, wall time,
// Pareto-frontier size, and point-latency percentiles.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type report struct {
	Addr        string   `json:"addr"`
	Concurrency int      `json:"concurrency"`
	Requests    int      `json:"requests"`
	Benches     []string `json:"benches"`
	Configs     []string `json:"configs"`
	Scale       string   `json:"scale"`

	WallSeconds  float64 `json:"wall_seconds"`
	Throughput   float64 `json:"throughput_jobs_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	Done         int     `json:"done"`
	Failed       int     `json:"failed"`
	ClientErrors int     `json:"client_errors"`
	// Robustness outcomes: Shed counts submissions the server refused with
	// "queue_full" (after any Retry-After retries were spent),
	// DeadlineExceeded jobs shed in the queue with "deadline_exceeded", and
	// Retries the client-side resubmissions Retry-After earned. Under
	// overload these are expected, structured outcomes (-allow-shed), not
	// failures.
	Shed             int     `json:"shed"`
	DeadlineExceeded int     `json:"deadline_exceeded"`
	Retries          int     `json:"client_retries"`
	CacheHits        float64 `json:"server_cache_hits"`
	CacheMisses      float64 `json:"server_cache_misses"`
	DedupJoined      float64 `json:"server_dedup_joined"`
	SimsStarted      float64 `json:"server_sims_started"`
	SimsCompleted    float64 `json:"server_sims_completed"`
	// The server's own overload counters, scraped after the run.
	ServerShedQueueFull float64 `json:"server_shed_queue_full"`
	ServerShedDeadline  float64 `json:"server_shed_deadline"`
	// Warm-up snapshot counters: runs that forked from a stored post-warm-up
	// chip snapshot (hits) vs runs that had to simulate the warm-up (misses),
	// the simulated cycles that reuse avoided, and the snapshot store's
	// byte/quarantine/eviction health.
	SnapshotHits        float64 `json:"server_snapshot_hits"`
	SnapshotMisses      float64 `json:"server_snapshot_misses"`
	WarmupCyclesSaved   float64 `json:"server_warmup_cycles_saved"`
	SnapshotBytes       float64 `json:"server_snapshot_bytes"`
	SnapshotQuarantined float64 `json:"server_snapshot_quarantined"`
	SnapshotEvicted     float64 `json:"server_snapshot_evicted"`

	// Experiments carries the server's per-experiment series summaries
	// (the labeled tarserved_experiment_* gauges): one row per distinct
	// simulation the load run touched, with its sim-internal cycle count
	// and IPC next to the client-side latencies above.
	Experiments []expSeries `json:"experiments,omitempty"`

	// Sweeps records sweep-shaped runs (-sweep): one row per sweep posted.
	Sweeps []sweepReport `json:"sweeps,omitempty"`
}

// sweepReport is one design-space sweep as the client saw it: grid size,
// how many simulations the server actually ran (the dedup payoff), the
// Pareto-frontier size, and per-point completion latencies.
type sweepReport struct {
	Key         string `json:"key"`
	State       string `json:"state"`
	Points      int    `json:"points"`
	Experiments int    `json:"experiments"`
	// UniqueSims is the server-side sims_started delta across the sweep —
	// the number of simulations that were not answered by dedup or the
	// result store.
	UniqueSims     float64 `json:"unique_sims"`
	PointCacheHits int     `json:"point_cache_hits"`
	Shed           int     `json:"shed"`
	WallSeconds    float64 `json:"wall_seconds"`
	FrontierSize   int     `json:"frontier_size"`
	P50PointMs     float64 `json:"p50_point_ms"`
	P99PointMs     float64 `json:"p99_point_ms"`
	CacheHit       bool    `json:"cache_hit,omitempty"`
	// SnapshotHits and WarmupCyclesSaved are server-side deltas across the
	// sweep: points that forked from a shared post-warm-up snapshot instead
	// of re-simulating the warm-up, and the simulated cycles that saved.
	SnapshotHits      float64 `json:"snapshot_hits"`
	WarmupCyclesSaved float64 `json:"warmup_cycles_saved"`
}

// expSeries is one scraped tarserved_experiment_* label set.
type expSeries struct {
	Key          string  `json:"key"`
	Bench        string  `json:"bench"`
	Config       string  `json:"config"`
	Cycles       float64 `json:"cycles"`
	IPC          float64 `json:"ipc"`
	MCPS         float64 `json:"mcps"`
	SamplePoints float64 `json:"sample_points"`
	CacheHits    float64 `json:"cache_hits"`
}

func main() {
	addrFlag := flag.String("addr", "http://127.0.0.1:8077", "tarserved base URL (a bare host:port means http://host:port)")
	conc := flag.Int("c", 32, "concurrent clients")
	n := flag.Int("n", 128, "total job submissions")
	benches := flag.String("benches", "streams_copy", "comma-separated benchmark names")
	configs := flag.String("configs", "EV8,EV8+,T,T4", "comma-separated machine configurations")
	scale := flag.String("scale", "test", "input scale: test, bench or full")
	wait := flag.Duration("wait", 30*time.Second, "long-poll interval per status request")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	allowShed := flag.Bool("allow-shed", false, "treat queue_full and deadline_exceeded outcomes as expected overload shedding, not run failures")
	sweepAxes := flag.String("sweep", "", `sweep mode: axes spec like "lanes=8,16;l2_kb=4096,16384" posted to /v1/sweeps instead of job traffic`)
	baseline := flag.String("baseline", "", "sweep mode: baseline configuration for speedups (default: the swept configuration)")
	flag.Parse()

	addr := strings.TrimRight(*addrFlag, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	bs := strings.Split(*benches, ",")
	cs := strings.Split(*configs, ",")

	if *sweepAxes != "" {
		runSweepMode(addr, bs, cs[0], *baseline, *scale, *sweepAxes, *out)
		return
	}

	type pair struct{ bench, config string }
	var set []pair
	for _, b := range bs {
		for _, c := range cs {
			set = append(set, pair{strings.TrimSpace(b), strings.TrimSpace(c)})
		}
	}

	var (
		mu               sync.Mutex
		latencies        []float64
		done             int
		failed           int
		clientErr        int
		shed             int
		deadlineExceeded int
		retries          int
	)
	start := time.Now()
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				p := set[i%len(set)]
				t0 := time.Now()
				oc, err := runJob(addr, p.bench, p.config, *scale, *wait)
				lat := time.Since(t0)
				mu.Lock()
				retries += oc.retries
				switch {
				case err != nil:
					clientErr++
					fmt.Fprintf(os.Stderr, "tarload: job %d (%s@%s): %v\n", i, p.bench, p.config, err)
				case oc.state == "done":
					done++
					latencies = append(latencies, float64(lat.Milliseconds()))
				case oc.code == "queue_full":
					shed++
				case oc.code == "deadline_exceeded":
					deadlineExceeded++
				default:
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	rep := report{
		Addr: addr, Concurrency: *conc, Requests: *n,
		Benches: bs, Configs: cs, Scale: *scale,
		WallSeconds: wall.Seconds(),
		Throughput:  float64(*n) / wall.Seconds(),
		Done:        done, Failed: failed, ClientErrors: clientErr,
		Shed: shed, DeadlineExceeded: deadlineExceeded, Retries: retries,
	}
	sort.Float64s(latencies)
	if len(latencies) > 0 {
		rep.P50Ms = latencies[len(latencies)/2]
		rep.P99Ms = latencies[int(0.99*float64(len(latencies)-1))]
	}
	if m, exps, err := scrapeMetrics(addr); err == nil {
		rep.CacheHits = m["tarserved_cache_hits_total"]
		rep.CacheMisses = m["tarserved_cache_misses_total"]
		rep.DedupJoined = m["tarserved_dedup_joined_total"]
		rep.SimsStarted = m["tarserved_sims_started_total"]
		rep.SimsCompleted = m["tarserved_sims_completed_total"]
		rep.ServerShedQueueFull = m["tarserved_shed_queue_full_total"]
		rep.ServerShedDeadline = m["tarserved_shed_deadline_total"]
		rep.SnapshotHits = m["tarserved_snapshot_hits_total"]
		rep.SnapshotMisses = m["tarserved_snapshot_misses_total"]
		rep.WarmupCyclesSaved = m["tarserved_warmup_cycles_saved_total"]
		rep.SnapshotBytes = m["tarserved_snapshot_bytes"]
		rep.SnapshotQuarantined = m["tarserved_snapshot_quarantined"]
		rep.SnapshotEvicted = m["tarserved_snapshot_evicted"]
		rep.Experiments = exps
	} else {
		fmt.Fprintln(os.Stderr, "tarload: metrics scrape failed:", err)
	}

	fmt.Fprintf(os.Stderr,
		"tarload: %d requests (%d done, %d failed, %d shed, %d deadline-exceeded, %d client errors, %d retries) in %.2fs — %.1f jobs/s, p50 %.0fms p99 %.0fms, server ran %.0f sims (%.0f cache hits, %.0f dedup joins)\n",
		*n, done, failed, shed, deadlineExceeded, clientErr, retries, wall.Seconds(), rep.Throughput, rep.P50Ms, rep.P99Ms,
		rep.SimsStarted, rep.CacheHits, rep.DedupJoined)

	enc, _ := json.MarshalIndent(rep, "", "  ")
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "tarload:", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(enc)
	}
	if failed > 0 || clientErr > 0 {
		os.Exit(1)
	}
	if !*allowShed && (shed > 0 || deadlineExceeded > 0) {
		fmt.Fprintln(os.Stderr, "tarload: run was shed by overload protection (pass -allow-shed to treat this as expected)")
		os.Exit(1)
	}
}

// parseAxes turns "lanes=8,16;l2_kb=4096,16384" into the sweep spec's axes
// object. Validation proper is the server's job — bad knob names come back
// as bad_request envelopes naming the field.
func parseAxes(s string) (map[string]map[string][]float64, error) {
	axes := map[string]map[string][]float64{}
	for _, part := range strings.Split(s, ";") {
		name, vals, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("axis %q: want name=v1,v2,...", part)
		}
		var fs []float64
		for _, v := range strings.Split(vals, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return nil, fmt.Errorf("axis %q: %v", name, err)
			}
			fs = append(fs, f)
		}
		axes[name] = map[string][]float64{"values": fs}
	}
	return axes, nil
}

// sweepStatusWire is the subset of the server's sweep status tarload reads.
type sweepStatusWire struct {
	ID             string `json:"id"`
	Key            string `json:"key"`
	State          string `json:"state"`
	CacheHit       bool   `json:"cache_hit"`
	Total          int    `json:"total"`
	Done           int    `json:"done"`
	Failed         int    `json:"failed"`
	Shed           int    `json:"shed"`
	PointCacheHits int    `json:"point_cache_hits"`
	Points         []struct {
		State string `json:"state"`
	} `json:"points"`
	Result *struct {
		Frontier []int `json:"frontier"`
		Points   []struct {
			Config string `json:"config"`
		} `json:"points"`
	} `json:"result"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// runSweepMode posts one sweep and follows it to a terminal state, recording
// per-point completion latencies along the way, then writes the report and
// exits with the sweep's fate.
func runSweepMode(addr string, benches []string, config, baseline, scale, axesSpec, out string) {
	axes, err := parseAxes(axesSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tarload: -sweep:", err)
		os.Exit(2)
	}
	spec := map[string]any{"config": config, "benches": benches, "scale": scale, "axes": axes}
	if baseline != "" {
		spec["baseline"] = baseline
	}
	simsBefore, snapHitsBefore, savedBefore := 0.0, 0.0, 0.0
	if m, _, err := scrapeMetrics(addr); err == nil {
		simsBefore = m["tarserved_sims_started_total"]
		snapHitsBefore = m["tarserved_snapshot_hits_total"]
		savedBefore = m["tarserved_warmup_cycles_saved_total"]
	}

	body, _ := json.Marshal(spec)
	start := time.Now()
	resp, err := http.Post(addr+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tarload: sweep submit:", err)
		os.Exit(1)
	}
	var st sweepStatusWire
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tarload: sweep submit decode:", err)
		os.Exit(1)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg := ""
		if st.Error != nil {
			msg = st.Error.Code + ": " + st.Error.Message
		}
		fmt.Fprintf(os.Stderr, "tarload: sweep submit: HTTP %d %s\n", resp.StatusCode, msg)
		os.Exit(1)
	}

	// Follow per-point progress: a point's latency is the time from sweep
	// submission until it was first observed done.
	pointDoneMs := map[int]float64{}
	for st.State != "done" && st.State != "failed" {
		resp, err := http.Get(addr + "/v1/sweeps/" + st.ID + "?wait=500ms")
		if err != nil {
			fmt.Fprintln(os.Stderr, "tarload: sweep poll:", err)
			os.Exit(1)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tarload: sweep poll decode:", err)
			os.Exit(1)
		}
		for i, p := range st.Points {
			if p.State == "done" {
				if _, seen := pointDoneMs[i]; !seen {
					pointDoneMs[i] = float64(time.Since(start).Milliseconds())
				}
			}
		}
	}
	wall := time.Since(start)
	for i, p := range st.Points {
		if p.State == "done" {
			if _, seen := pointDoneMs[i]; !seen {
				pointDoneMs[i] = float64(wall.Milliseconds())
			}
		}
	}

	sr := sweepReport{
		Key:            st.Key,
		State:          st.State,
		Points:         len(st.Points),
		Experiments:    st.Total,
		PointCacheHits: st.PointCacheHits,
		Shed:           st.Shed,
		WallSeconds:    wall.Seconds(),
		CacheHit:       st.CacheHit,
	}
	if st.Result != nil {
		sr.FrontierSize = len(st.Result.Frontier)
	}
	var lats []float64
	for _, ms := range pointDoneMs {
		lats = append(lats, ms)
	}
	sort.Float64s(lats)
	if len(lats) > 0 {
		sr.P50PointMs = lats[len(lats)/2]
		sr.P99PointMs = lats[int(0.99*float64(len(lats)-1))]
	}
	if m, _, err := scrapeMetrics(addr); err == nil {
		sr.UniqueSims = m["tarserved_sims_started_total"] - simsBefore
		sr.SnapshotHits = m["tarserved_snapshot_hits_total"] - snapHitsBefore
		sr.WarmupCyclesSaved = m["tarserved_warmup_cycles_saved_total"] - savedBefore
	}

	rep := report{
		Addr: addr, Benches: benches, Configs: []string{config}, Scale: scale,
		WallSeconds: wall.Seconds(), Done: st.Done, Failed: st.Failed, Shed: st.Shed,
		Sweeps: []sweepReport{sr},
	}
	fmt.Fprintf(os.Stderr,
		"tarload: sweep %s %s — %d points, %d experiments (%.0f simulated, %d from store, %d shed) in %.2fs; frontier %d, point p50 %.0fms p99 %.0fms; %.0f warm-up forks saved %.0f cycles\n",
		st.Key, st.State, sr.Points, sr.Experiments, sr.UniqueSims, sr.PointCacheHits, sr.Shed,
		sr.WallSeconds, sr.FrontierSize, sr.P50PointMs, sr.P99PointMs, sr.SnapshotHits, sr.WarmupCyclesSaved)

	enc, _ := json.MarshalIndent(rep, "", "  ")
	enc = append(enc, '\n')
	if out != "" {
		if err := os.WriteFile(out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "tarload:", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(enc)
	}
	if st.State != "done" {
		if st.Error != nil {
			fmt.Fprintf(os.Stderr, "tarload: sweep failed: %s: %s\n", st.Error.Code, st.Error.Message)
		}
		os.Exit(1)
	}
}

// outcome is one job's terminal fate: its state ("done", "failed" or
// "shed"), the envelope code when it did not complete, and how many
// Retry-After resubmissions it took to get in the door.
type outcome struct {
	state   string
	code    string
	retries int
}

// runJob submits one experiment and long-polls until it reaches a terminal
// state. A "queue_full" rejection is retried after the server's Retry-After
// estimate (capped, bounded attempts) — the polite client the admission
// controller's header is designed for; when the retries run out the job
// counts as shed rather than erroring.
func runJob(addr, bench, config, scale string, wait time.Duration) (outcome, error) {
	body, _ := json.Marshal(map[string]any{"bench": bench, "config": config, "scale": scale})
	var oc outcome
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error *struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	for {
		resp, err := http.Post(addr+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return oc, err
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			var envelope struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			err := json.NewDecoder(resp.Body).Decode(&envelope)
			retryAfter := resp.Header.Get("Retry-After")
			resp.Body.Close()
			if err != nil {
				return oc, err
			}
			if envelope.Error.Code == "queue_full" && oc.retries < 3 {
				oc.retries++
				delay := time.Second
				if s, err := strconv.Atoi(retryAfter); err == nil && s > 0 {
					delay = time.Duration(s) * time.Second
				}
				if delay > 5*time.Second {
					delay = 5 * time.Second
				}
				time.Sleep(delay)
				continue
			}
			oc.state, oc.code = "shed", envelope.Error.Code
			return oc, nil
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return oc, err
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			if st.Error != nil {
				// A structured terminal envelope is an outcome, not a client
				// error.
				oc.state, oc.code = "failed", st.Error.Code
				return oc, nil
			}
			return oc, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		}
		break
	}
	for st.State != "done" && st.State != "failed" {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s?wait=%s", addr, st.ID, wait))
		if err != nil {
			return oc, err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return oc, err
		}
	}
	oc.state = st.State
	if st.Error != nil {
		oc.code = st.Error.Code
	}
	return oc, nil
}

// scrapeMetrics pulls the plain counters and the labeled per-experiment
// series summaries out of /metrics.
func scrapeMetrics(addr string) (map[string]float64, []expSeries, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	out := map[string]float64{}
	re := regexp.MustCompile(`(?m)^([a-z_]+) (\S+)$`)
	for _, m := range re.FindAllStringSubmatch(string(body), -1) {
		if v, err := strconv.ParseFloat(m[2], 64); err == nil {
			out[m[1]] = v
		}
	}
	// Store-health gauges carry a tier label; fold them in under the bare
	// metric name (one store, one tier — the label is for dashboards).
	reTier := regexp.MustCompile(`(?m)^([a-z_]+)\{tier="[^"]*"\} (\S+)$`)
	for _, m := range reTier.FindAllStringSubmatch(string(body), -1) {
		if v, err := strconv.ParseFloat(m[2], 64); err == nil {
			out[m[1]] = v
		}
	}
	return out, scrapeExperiments(string(body)), nil
}

// scrapeExperiments parses the tarserved_experiment_* label sets into rows,
// one per distinct (key, bench, config), sorted by key for a deterministic
// report.
func scrapeExperiments(body string) []expSeries {
	re := regexp.MustCompile(`(?m)^tarserved_experiment_([a-z_]+)\{key="([^"]*)",bench="([^"]*)",config="([^"]*)"\} (\S+)$`)
	byKey := map[string]*expSeries{}
	for _, m := range re.FindAllStringSubmatch(body, -1) {
		field, key, bench, config := m[1], m[2], m[3], m[4]
		v, err := strconv.ParseFloat(m[5], 64)
		if err != nil {
			continue
		}
		e, ok := byKey[key]
		if !ok {
			e = &expSeries{Key: key, Bench: bench, Config: config}
			byKey[key] = e
		}
		switch field {
		case "cycles":
			e.Cycles = v
		case "ipc":
			e.IPC = v
		case "mcps":
			e.MCPS = v
		case "sample_points":
			e.SamplePoints = v
		case "cache_hits":
			e.CacheHits = v
		}
	}
	var exps []expSeries
	for _, e := range byKey {
		exps = append(exps, *e)
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].Key < exps[j].Key })
	return exps
}
