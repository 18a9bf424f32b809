package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the closed loop's concurrency: one load process holding at
// most two connections, one per CPU the benchmark is sized for.
const clients = 2

var httpClient = &http.Client{
	Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
	Timeout:   2 * time.Minute,
}

// server is one tarserved process, started on an empty store.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited
	err  error         // the process's exit error, valid after done
}

func startServer(e *env, n int) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	store := filepath.Join(e.work, fmt.Sprintf("store-%d", n))
	if err := os.Mkdir(store, 0o755); err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-store-dir", store}
	if e.traced() {
		args = append(args, "-cpuprofile", filepath.Join(e.work, fmt.Sprintf("serve-%d.pprof", n)))
	}
	s := &server{cmd: command(filepath.Join(e.bin, "tarserved"), args...), base: "http://" + addr, done: make(chan struct{})}
	s.cmd.Stderr = os.Stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-s.done:
			return nil, fmt.Errorf("tarserved exited while starting: %v", s.err)
		default:
		}
		if resp, err := httpClient.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("tarserved not healthy within 30s")
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// kill ends the process if it still runs, and waits for it.
func (s *server) kill() {
	select {
	case <-s.done:
	default:
		s.cmd.Process.Kill()
		<-s.done
	}
}

// stop drains the server with SIGTERM, as a deploy does, and returns its
// peak resident set in MB.
func (s *server) stop() (float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-s.done:
	case <-time.After(time.Minute):
		s.kill()
		return 0, errors.New("tarserved did not drain within a minute")
	}
	httpClient.CloseIdleConnections()
	if s.err != nil {
		return 0, fmt.Errorf("tarserved: %w", s.err)
	}
	return maxRSSMB(s.cmd.ProcessState), nil
}

// hwmMB is the running server's resident-set high-water mark in MB.
func (s *server) hwmMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// call sends one request, decodes a JSON reply into out when it is not
// nil, and returns the status code and body.
func call(method, url string, body []byte, out any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, raw, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, raw, nil
}

// jobStatus is the part of a /v1 job status (or error envelope) the
// client reads.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Error    *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func (st *jobStatus) describe() string {
	if st.Error == nil {
		return ""
	}
	return ": " + st.Error.Code + ": " + st.Error.Message
}

// jobTiming is one job as the client saw it: submitted, terminal status
// seen, result fetched.
type jobTiming struct {
	start, submitted, waited, fetched time.Time
	id                                string
	cacheHit                          bool
	result                            *cell
	err                               error
}

func runJob(base string, spec jobSpec) (t jobTiming) {
	body, err := json.Marshal(spec)
	if err != nil {
		t.err = err
		return t
	}
	var st jobStatus
	t.start = time.Now()
	code, _, err := call(http.MethodPost, base+"/v1/jobs", body, &st)
	t.submitted = time.Now()
	if err == nil && code != http.StatusOK && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d%s", code, st.describe())
	}
	if err != nil {
		t.err = err
		return t
	}
	t.id, t.cacheHit = st.ID, st.CacheHit
	for st.State != "done" && st.State != "failed" {
		code, _, err := call(http.MethodGet, base+"/v1/jobs/"+st.ID+"?wait=30s", nil, &st)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status: HTTP %d%s", code, st.describe())
		}
		if err != nil {
			t.err = err
			return t
		}
	}
	t.waited = time.Now()
	if st.State == "failed" {
		t.err = fmt.Errorf("job %s failed%s", st.ID, st.describe())
		return t
	}
	code, raw, err := call(http.MethodGet, base+"/v1/jobs/"+st.ID+"/result", nil, nil)
	t.fetched = time.Now()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", code)
	}
	if err == nil {
		t.result, err = decodeCell(raw)
	}
	t.err = err
	return t
}

// closedLoop runs jobs on `clients` clients, each sending its next job
// only once its previous job's result has arrived.
func closedLoop(base string, jobs []jobSpec, spans *spanLog, batch int) []jobTiming {
	out := make([]jobTiming, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = runJob(base, jobs[i])
				spans.job(c, fmt.Sprintf("b%d/%s", batch, out[i].id), &out[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// scrape reads tarserved's unlabeled and store-tier series from /metrics.
func scrape(base string) (map[string]float64, error) {
	code, raw, err := call(http.MethodGet, base+"/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' || strings.HasPrefix(line, "tarserved_experiment_") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

func fetchKnobs(base string) ([]knob, error) {
	var body struct {
		Knobs []knob `json:"knobs"`
	}
	code, _, err := call(http.MethodGet, base+"/v1/sweeps/knobs", nil, &body)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/v1/sweeps/knobs: HTTP %d", code)
	}
	return body.Knobs, err
}

// batchRun is one server life: start on an empty store, the optional
// prefill, the measured load, the drain.
type batchRun struct {
	setup      time.Duration // spawn → healthy, plus the prefill
	wall       time.Duration // the load phase
	prefill    []jobTiming
	load       []jobTiming
	knobs      []knob
	delta      map[string]float64 // counters over the load phase
	total      map[string]float64 // counters at the end of the server's life
	rssMB      float64
	hwmStartMB float64
	hwmEndMB   float64
}

func runBatch(e *env, n int, prefill, load []jobSpec) (*batchRun, error) {
	br := &batchRun{}
	start := time.Now()
	s, err := startServer(e, n)
	if err != nil {
		return nil, err
	}
	defer s.kill()
	if len(prefill) > 0 {
		br.prefill = closedLoop(s.base, prefill, nil, n)
		for i, t := range br.prefill {
			if t.err != nil {
				return nil, fmt.Errorf("prefill %s: %w", prefill[i].Bench, t.err)
			}
		}
	}
	br.setup = time.Since(start)
	if br.knobs, err = fetchKnobs(s.base); err != nil {
		return nil, err
	}
	before, err := scrape(s.base)
	if err != nil {
		return nil, err
	}
	if br.hwmStartMB, err = s.hwmMB(); err != nil {
		return nil, err
	}
	loadStart := time.Now()
	br.load = closedLoop(s.base, load, e.spans, n)
	br.wall = time.Since(loadStart)
	if br.hwmEndMB, err = s.hwmMB(); err != nil {
		return nil, err
	}
	if br.total, err = scrape(s.base); err != nil {
		return nil, err
	}
	br.delta = map[string]float64{}
	for k, v := range br.total {
		br.delta[k] = v - before[k]
	}
	if br.rssMB, err = s.stop(); err != nil {
		return nil, err
	}
	return br, os.RemoveAll(filepath.Join(e.work, fmt.Sprintf("store-%d", n)))
}

// serveAgg pools a serve workload's batches. Per-batch figures are
// reported as medians, so one slow host moment moves one batch, not the run.
type serveAgg struct {
	setups, walls, rates, rss, rssPerJob []float64
	lat, submit, wait, fetch, outside    []float64          // ms, per completed load job
	batchLat                             [][]float64        // lat, batch by batch
	counters                             map[string]float64 // summed over server lives
}

// latency is the q-quantile of job latency: the median of the per-batch
// quantiles when every batch has at least 10 samples beyond it, otherwise
// the quantile over all the run's jobs.
func (a *serveAgg) latency(q float64) float64 {
	var perBatch []float64
	for _, l := range a.batchLat {
		if float64(len(l))*(1-q) < 10 {
			return percentile(a.lat, q)
		}
		perBatch = append(perBatch, percentile(l, q))
	}
	return median(perBatch)
}

func (a *serveAgg) add(br *batchRun) {
	a.setups = append(a.setups, br.setup.Seconds())
	a.walls = append(a.walls, br.wall.Seconds())
	a.rss = append(a.rss, br.rssMB)
	var lat []float64
	for _, t := range br.load {
		if t.err != nil {
			continue
		}
		lat = append(lat, ms(t.fetched.Sub(t.start)))
		a.submit = append(a.submit, ms(t.submitted.Sub(t.start)))
		a.wait = append(a.wait, ms(t.waited.Sub(t.submitted)))
		a.fetch = append(a.fetch, ms(t.fetched.Sub(t.waited)))
		if !t.cacheHit && t.result != nil {
			a.outside = append(a.outside, ms(t.fetched.Sub(t.start))-float64(t.result.SimWallNs)/1e6)
		}
	}
	a.lat = append(a.lat, lat...)
	a.batchLat = append(a.batchLat, lat)
	done := len(lat)
	a.rates = append(a.rates, per(float64(done), br.wall.Seconds()))
	if done > 0 {
		a.rssPerJob = append(a.rssPerJob, (br.hwmEndMB-br.hwmStartMB)/float64(done))
	}
	if a.counters == nil {
		a.counters = map[string]float64{}
	}
	for k, v := range br.total {
		a.counters[k] += v
	}
}

func (a *serveAgg) e2e(paperErr float64) map[string]float64 {
	return map[string]float64{
		"setup_s":       median(a.setups),
		"wall_s":        median(a.walls),
		"jobs_per_s":    median(a.rates),
		"job_p50_ms":    a.latency(0.50),
		"job_p95_ms":    a.latency(0.95),
		"job_p99_ms":    a.latency(0.99),
		"peak_rss_mb":   median(a.rss),
		"paper_err_pct": paperErr,
	}
}

// addLayers sets the request-path and server-counter per-layer metrics.
func (a *serveAgg) addLayers(m map[string]float64) {
	c := a.counters
	m["serve.submit_ms_p50"] = percentile(a.submit, 0.5)
	m["serve.wait_ms_p50"] = percentile(a.wait, 0.5)
	m["serve.fetch_ms_p50"] = percentile(a.fetch, 0.5)
	m["serve.outside_loop_ms_p50"] = percentile(a.outside, 0.5)
	m["serve.sims_started"] = c["tarserved_sims_started_total"]
	m["serve.cache_hits"] = c["tarserved_cache_hits_total"]
	m["serve.hit_ratio"] = per(c["tarserved_cache_hits_total"], c["tarserved_cache_hits_total"]+c["tarserved_cache_misses_total"])
	m["serve.dedup_joined"] = c["tarserved_dedup_joined_total"]
	m["serve.shed"] = c["tarserved_shed_queue_full_total"] + c["tarserved_shed_deadline_total"] + c["tarserved_poison_shed_total"]
	m["store.io_errors"] = c["tarserved_store_io_errors"]
	m["snapshot.hits"] = c["tarserved_snapshot_hits_total"]
	m["snapshot.misses"] = c["tarserved_snapshot_misses_total"]
	m["snapshot.hit_ratio"] = per(c["tarserved_snapshot_hits_total"], c["tarserved_snapshot_hits_total"]+c["tarserved_snapshot_misses_total"])
	m["serve.rss_mb_per_job"] = median(a.rssPerJob)
}

// probePaperErr is the paper error of the Table 4 kernels on T as the
// binaries under test compute them (tartables -table 4), the serve
// workloads' guard on the model itself.
func probePaperErr(e *env, o *outcome) (float64, error) {
	doc, _, _, _, err := tartables(e, "-table", "4", "-scale", "test", "-json")
	if err != nil {
		return 0, err
	}
	if n := doc.errorRows(); n > 0 {
		o.fail("tartables -table 4: %d error rows", n)
	}
	return doc.paperErrPct(), nil
}

// serveLoad is what sets one serve workload apart from the other: the
// jobs a batch sends, what each server simulates before its load as
// set-up, and how a finished batch is checked.
type serveLoad struct {
	jobs    func(seed int64, b int) []jobSpec
	prefill []jobSpec
	points  bool // record every generated point with the run
	// check counts batch b's failed output checks into o and returns the
	// cells the batch simulated: their statistics feed the event counts,
	// the fingerprint and the traced trace-generation timing.
	check func(o *outcome, b int, jobs []jobSpec, br *batchRun) ([]*cell, error)
}

// serveCold sends unique design-space points to fresh servers: every job
// simulates and writes the store.
func serveCold(e *env) (*outcome, error) {
	return runServe(e, serveLoad{jobs: coldBatch, points: true, check: checkCold})
}

// serveReplay simulates the replay set once per server life, then
// resubmits it and fetches the results: reads with no simulation.
func serveReplay(e *env) (*outcome, error) {
	return runServe(e, serveLoad{jobs: replayBatch, prefill: replaySet, check: checkReplay})
}

// runServe runs batches of w, each on a fresh server, for the run's seconds.
func runServe(e *env, w serveLoad) (*outcome, error) {
	o := &outcome{}
	var (
		agg     serveAgg
		lt      layerTotals
		batches [][]jobSpec
		sims    []*cell
	)
	begin, last := time.Now(), time.Duration(0)
	for b := 0; e.another(begin, b, last); b++ {
		start := time.Now()
		jobs := w.jobs(e.seed, b)
		br, err := runBatch(e, b, w.prefill, jobs)
		if err != nil {
			return nil, err
		}
		last = time.Since(start)
		batches = append(batches, jobs)
		o.attempted += len(jobs)
		for i, t := range br.load {
			if t.err != nil {
				o.fail("batch %d job %d (%s on %s): %v", b, i, jobs[i].Bench, jobs[i].Config, t.err)
			}
		}
		cells, err := w.check(o, b, jobs, br)
		if err != nil {
			return nil, err
		}
		if b == 0 {
			// Only the first batch runs in every run, whatever the host's
			// speed, so only it can fingerprint a seed.
			o.fingerprint = fingerprint(cells)
		}
		for _, c := range cells {
			lt.addSim(c)
		}
		sims = append(sims, cells...)
		agg.add(br)
		if e.traced() {
			if err := lt.addProfile(filepath.Join(e.work, fmt.Sprintf("serve-%d.pprof", b))); err != nil {
				return nil, err
			}
		}
	}
	paperErr, err := probePaperErr(e, o)
	if err != nil {
		return nil, err
	}
	o.e2e = agg.e2e(paperErr)
	if e.traced() {
		refs, err := kernelsOf(sims)
		if err != nil {
			return nil, err
		}
		if err := lt.drain(refs); err != nil {
			return nil, err
		}
		o.layers = lt.metrics()
		agg.addLayers(o.layers)
	}
	o.mix = describeMix(e.seed, batches, w.points)
	return o, nil
}

// checkCold fails a batch whose server did not simulate every generated
// experiment exactly once, or answered any from its cache.
func checkCold(o *outcome, b int, jobs []jobSpec, br *batchRun) ([]*cell, error) {
	if err := checkKnobs(br.knobs, jobs); err != nil {
		return nil, err
	}
	if got := br.delta["tarserved_sims_started_total"]; got != float64(len(jobs)) {
		o.fail("batch %d: %v simulations started for %d generated experiments", b, got, len(jobs))
	}
	if hits := br.delta["tarserved_cache_hits_total"]; hits != 0 {
		o.fail("batch %d: %v cache hits, so the run was not cold", b, hits)
	}
	var cells []*cell
	for _, t := range br.load {
		if t.err == nil {
			cells = append(cells, t.result)
		}
	}
	return cells, nil
}

// checkReplay fails a batch whose server simulated after the prefill, or
// replayed a result that differs from the one it simulated, or whose
// prefill simulated differently from the first batch's.
func checkReplay(o *outcome, b int, jobs []jobSpec, br *batchRun) ([]*cell, error) {
	expect := map[string][]byte{}
	var cells []*cell
	for i, t := range br.prefill {
		expect[replaySet[i].Bench] = t.result.canon
		cells = append(cells, t.result)
	}
	mismatched := 0
	for i, t := range br.load {
		if t.err == nil && !bytes.Equal(t.result.canon, expect[jobs[i].Bench]) {
			mismatched++
		}
	}
	if mismatched > 0 {
		o.fail("batch %d: %d replayed results differ from the simulated ones", b, mismatched)
	}
	if got := br.delta["tarserved_sims_started_total"]; got != 0 {
		o.fail("batch %d: %v simulations after the prefill", b, got)
	}
	if fp := fingerprint(cells); b > 0 && fp != o.fingerprint {
		o.fail("batch %d prefill fingerprint %s differs from batch 0's %s", b, fp, o.fingerprint)
	}
	return cells, nil
}
