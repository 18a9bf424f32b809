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
// -out writes a machine-readable JSON report, a record of the smoke run:
// the client's counts and latencies next to the server's job, cache,
// dedup and queue-full counters and its per-experiment series summaries.
// tarbench's serve-cold and serve-replay workloads measure the service's
// throughput.
//
// -sweep runs one design-space sweep as what it is, ordinary jobs: the axes
// (like "lanes=8,16;l2_kb=4096,16384") over the -benches list, based on the
// first -configs entry, are canonicalized locally — a bad knob exits with
// code 2 and a message naming it — then the baseline (-baseline, default
// the swept configuration) and every grid point are submitted per bench
// with -c concurrency, and internal/dse ranks the completed points. The
// report's sweeps row carries the ranked points with their costs and the
// Pareto frontier, next to unique simulations, store hits, wall time and
// point-latency percentiles. Because the server deduplicates by content
// address and keeps every result, rerunning a sweep costs nothing for the
// points it already answered.
//
//	tarload -sweep "lanes=8,16;l2_kb=4096,16384;pump=0,1" \
//	        -benches dgemm -configs T -scale test -out sweep.json
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

	"repro/internal/dse"
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
	// "queue_full" after the Retry-After retries were spent, and Retries
	// the client-side resubmissions those refusals earned. Under overload
	// these are expected, structured outcomes (-allow-shed), not failures.
	Shed          int     `json:"shed"`
	Retries       int     `json:"client_retries"`
	CacheHits     float64 `json:"server_cache_hits"`
	CacheMisses   float64 `json:"server_cache_misses"`
	DedupJoined   float64 `json:"server_dedup_joined"`
	SimsStarted   float64 `json:"server_sims_started"`
	SimsCompleted float64 `json:"server_sims_completed"`
	// The server's own overload counter, scraped after the run.
	ServerShedQueueFull float64 `json:"server_shed_queue_full"`

	// Experiments carries the server's per-experiment series summaries
	// (the labeled tarserved_experiment_* gauges): one row per distinct
	// simulation the load run touched, with its sim-internal cycle count
	// and IPC next to the client-side latencies above.
	Experiments []expSeries `json:"experiments,omitempty"`

	// Sweeps records sweep runs (-sweep): one row per sweep.
	Sweeps []sweepReport `json:"sweeps,omitempty"`
}

// sweepReport is one design-space sweep as the client saw it: grid size,
// how many simulations the server actually ran (the dedup payoff), the
// ranked points with the Pareto frontier, and per-point completion
// latencies.
type sweepReport struct {
	// State is "done" when the baseline completed and the points were
	// ranked, "failed" otherwise.
	State string `json:"state"`
	// Points counts design points (baseline included); Experiments the
	// jobs, points × benches.
	Points      int `json:"points"`
	Experiments int `json:"experiments"`
	// UniqueSims is the server-side sims_started delta across the sweep —
	// the number of simulations that were not answered by dedup or the
	// result store.
	UniqueSims float64 `json:"unique_sims"`
	// PointCacheHits counts jobs answered from the result store at
	// submission; Shed jobs refused with "queue_full" after their retries.
	PointCacheHits int     `json:"point_cache_hits"`
	Shed           int     `json:"shed"`
	WallSeconds    float64 `json:"wall_seconds"`
	FrontierSize   int     `json:"frontier_size"`
	// P50PointMs/P99PointMs: time from the sweep's start until each point's
	// last bench completed.
	P50PointMs float64 `json:"p50_point_ms"`
	P99PointMs float64 `json:"p99_point_ms"`
	// Ranked lists the completed points, baseline first, each with its
	// per-bench cycles and speedups and its cost; Frontier indexes the
	// Pareto-optimal ones.
	Ranked   []dse.Point `json:"ranked"`
	Frontier []int       `json:"frontier"`
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
	allowShed := flag.Bool("allow-shed", false, "treat queue_full refusals that outlast their retries as expected overload shedding, not run failures")
	sweepAxes := flag.String("sweep", "", `sweep mode: axes spec like "lanes=8,16;l2_kb=4096,16384", run as one job per point and bench and ranked`)
	baseline := flag.String("baseline", "", "sweep mode: baseline configuration for speedups (default: the swept configuration)")
	flag.Parse()

	addr := strings.TrimRight(*addrFlag, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	bs := strings.Split(*benches, ",")
	cs := strings.Split(*configs, ",")

	if *sweepAxes != "" {
		axes, err := parseAxes(*sweepAxes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tarload: -sweep:", err)
			os.Exit(2)
		}
		spec := &dse.Spec{Config: strings.TrimSpace(cs[0]), Baseline: *baseline, Scale: *scale, Axes: axes}
		for _, b := range bs {
			spec.Benches = append(spec.Benches, strings.TrimSpace(b))
		}
		if err := spec.Canonicalize(); err != nil {
			fmt.Fprintln(os.Stderr, "tarload: -sweep:", err)
			os.Exit(2)
		}
		runSweepMode(addr, spec, *conc, *wait, *out)
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
		mu        sync.Mutex
		latencies []float64
		done      int
		failed    int
		clientErr int
		shed      int
		retries   int
	)
	start := time.Now()
	forEach(*n, *conc, func(i int) {
		p := set[i%len(set)]
		t0 := time.Now()
		oc, err := runJob(addr, jobRequest{Bench: p.bench, Config: p.config, Scale: *scale}, *wait)
		lat := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
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
		default:
			failed++
		}
	})
	wall := time.Since(start)

	rep := report{
		Addr: addr, Concurrency: *conc, Requests: *n,
		Benches: bs, Configs: cs, Scale: *scale,
		WallSeconds: wall.Seconds(),
		Throughput:  float64(*n) / wall.Seconds(),
		Done:        done, Failed: failed, ClientErrors: clientErr,
		Shed: shed, Retries: retries,
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
		rep.Experiments = exps
	} else {
		fmt.Fprintln(os.Stderr, "tarload: metrics scrape failed:", err)
	}

	fmt.Fprintf(os.Stderr,
		"tarload: %d requests (%d done, %d failed, %d shed, %d client errors, %d retries) in %.2fs — %.1f jobs/s, p50 %.0fms p99 %.0fms, server ran %.0f sims (%.0f cache hits, %.0f dedup joins)\n",
		*n, done, failed, shed, clientErr, retries, wall.Seconds(), rep.Throughput, rep.P50Ms, rep.P99Ms,
		rep.SimsStarted, rep.CacheHits, rep.DedupJoined)

	writeReport(rep, *out)
	if failed > 0 || clientErr > 0 {
		os.Exit(1)
	}
	if !*allowShed && shed > 0 {
		fmt.Fprintln(os.Stderr, "tarload: run was shed by overload protection (pass -allow-shed to treat this as expected)")
		os.Exit(1)
	}
}

// forEach calls f(0), …, f(n-1) from conc goroutines and returns once every
// call has.
func forEach(n, conc int, f func(i int)) {
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// writeReport writes the JSON report to out, or to stdout when out is empty.
func writeReport(rep report, out string) {
	enc, _ := json.MarshalIndent(rep, "", "  ")
	enc = append(enc, '\n')
	if out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tarload:", err)
		os.Exit(1)
	}
}

// parseAxes turns "lanes=8,16;l2_kb=4096,16384" into the sweep spec's axes.
// Knob names and values are checked by dse.Spec.Canonicalize.
func parseAxes(s string) (map[string]dse.Axis, error) {
	axes := map[string]dse.Axis{}
	for _, part := range strings.Split(s, ";") {
		name, vals, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("axis %q: want name=v1,v2,...", part)
		}
		var ax dse.Axis
		for _, v := range strings.Split(vals, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return nil, fmt.Errorf("axis %q: %v", name, err)
			}
			ax.Values = append(ax.Values, f)
		}
		axes[name] = ax
	}
	return axes, nil
}

// runSweepMode submits the baseline and every grid point of a canonical spec
// as one job per bench through runJob, conc at a time, ranks the completed
// points with dse, then writes the report and exits with the sweep's fate:
// a sweep whose baseline did not complete cannot be ranked and fails.
func runSweepMode(addr string, spec *dse.Spec, conc int, wait time.Duration, out string) {
	points := append([]map[string]float64{nil}, spec.Expand()...)
	type experiment struct {
		point int
		bench string
	}
	var exps []experiment
	cycles := make([]map[string]uint64, len(points))
	pending := make([]int, len(points)) // benches still outstanding per point
	for i := range points {
		cycles[i] = map[string]uint64{}
		pending[i] = len(spec.Benches)
		for _, b := range spec.Benches {
			exps = append(exps, experiment{i, b})
		}
	}
	simsBefore := 0.0
	if m, _, err := scrapeMetrics(addr); err == nil {
		simsBefore = m["tarserved_sims_started_total"]
	}

	var (
		mu                                  sync.Mutex
		pointMs                             []float64
		done, failed, shed, hits, clientErr int
		retries                             int
		baselineCode                        string
	)
	start := time.Now()
	forEach(len(exps), conc, func(i int) {
		e := exps[i]
		req := jobRequest{Bench: e.bench, Config: spec.Config, Scale: spec.Scale, Knobs: points[e.point]}
		if e.point == 0 {
			req.Config = spec.Baseline
		}
		oc, err := runJob(addr, req, wait)
		mu.Lock()
		defer mu.Unlock()
		retries += oc.retries
		switch {
		case err != nil:
			clientErr++
			fmt.Fprintf(os.Stderr, "tarload: sweep point %d (%s@%s): %v\n", e.point, e.bench, req.Config, err)
		case oc.state == "done":
			done++
			cycles[e.point][e.bench] = oc.cycles
			if oc.cacheHit {
				hits++
			}
			if pending[e.point]--; pending[e.point] == 0 {
				pointMs = append(pointMs, float64(time.Since(start).Milliseconds()))
			}
		case oc.code == "queue_full":
			shed++
		default:
			failed++
		}
		if e.point == 0 && oc.state != "done" && baselineCode == "" {
			baselineCode = oc.code
		}
	})
	wall := time.Since(start)

	sr := sweepReport{
		State:          "done",
		Points:         len(points),
		Experiments:    len(exps),
		PointCacheHits: hits,
		Shed:           shed,
		WallSeconds:    wall.Seconds(),
	}
	ranked, frontier, rankErr := spec.Rank(cycles)
	if rankErr != nil {
		sr.State = "failed"
	}
	sr.Ranked, sr.Frontier, sr.FrontierSize = ranked, frontier, len(frontier)
	sort.Float64s(pointMs)
	if len(pointMs) > 0 {
		sr.P50PointMs = pointMs[len(pointMs)/2]
		sr.P99PointMs = pointMs[int(0.99*float64(len(pointMs)-1))]
	}
	if m, _, err := scrapeMetrics(addr); err == nil {
		sr.UniqueSims = m["tarserved_sims_started_total"] - simsBefore
	}

	rep := report{
		Addr: addr, Concurrency: conc, Requests: len(exps),
		Benches: spec.Benches, Configs: []string{spec.Config}, Scale: spec.Scale,
		WallSeconds: wall.Seconds(), Done: done, Failed: failed, Shed: shed,
		ClientErrors: clientErr, Retries: retries,
		Sweeps: []sweepReport{sr},
	}
	fmt.Fprintf(os.Stderr,
		"tarload: sweep %s — %d points, %d experiments (%.0f simulated, %d from store, %d failed, %d shed) in %.2fs; frontier %d, point p50 %.0fms p99 %.0fms\n",
		sr.State, sr.Points, sr.Experiments, sr.UniqueSims, sr.PointCacheHits, failed, sr.Shed,
		sr.WallSeconds, sr.FrontierSize, sr.P50PointMs, sr.P99PointMs)

	writeReport(rep, out)
	if rankErr != nil {
		fmt.Fprintf(os.Stderr, "tarload: sweep failed: %v (baseline job: %s)\n", rankErr, baselineCode)
	}
	if rankErr != nil || clientErr > 0 {
		os.Exit(1)
	}
}

// jobRequest is the POST /v1/jobs body tarload sends.
type jobRequest struct {
	Bench  string             `json:"bench"`
	Config string             `json:"config"`
	Scale  string             `json:"scale"`
	Knobs  map[string]float64 `json:"knobs,omitempty"`
}

// outcome is one job's terminal fate: its state ("done", "failed" or
// "shed"), the envelope code when it did not complete, how many
// Retry-After resubmissions it took to get in the door, and for a done job
// its simulated cycles and whether the store answered it at submission.
type outcome struct {
	state    string
	code     string
	retries  int
	cycles   uint64
	cacheHit bool
}

// runJob submits one experiment, long-polls until it reaches a terminal
// state, and reads a done job's cycles from its result, GET
// /v1/jobs/{id}/result. A "queue_full" refusal is retried after the
// server's Retry-After (capped, at most three times); when the retries run
// out the job counts as shed rather than erroring.
func runJob(addr string, req jobRequest, wait time.Duration) (outcome, error) {
	body, _ := json.Marshal(req)
	var oc outcome
	var st struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		CacheHit bool   `json:"cache_hit"`
		Error    *struct {
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
	oc.state, oc.cacheHit = st.State, st.CacheHit
	if st.Error != nil {
		oc.code = st.Error.Code
	}
	if st.State != "done" {
		return oc, nil
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result", addr, st.ID))
	if err != nil {
		return oc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return oc, fmt.Errorf("result of %s: HTTP %d", st.ID, resp.StatusCode)
	}
	var res struct {
		Cycles uint64 `json:"cycles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return oc, err
	}
	oc.cycles = res.Cycles
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
