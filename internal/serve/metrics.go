package serve

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
)

// maxExperimentSeries bounds the per-experiment summary table on /metrics:
// past it, the oldest experiment's labels are dropped (insertion order).
// The bound keeps the scrape surface finite no matter how many distinct
// experiments a long-lived server executes.
const maxExperimentSeries = 512

// expSeries is one experiment's series summary, labeled on /metrics by
// content key, benchmark and configuration. samplePoints is zero when the
// server runs with sampling disabled.
type expSeries struct {
	key, bench, config string
	cycles             uint64
	ipc                float64
	mcps               float64
	samplePoints       int
	cacheHits          uint64
}

// metrics is the server's counter set, exported in Prometheus text format
// on /metrics. Everything is guarded by one mutex — the counters are
// touched once per job transition, not per simulated cycle, so contention
// is irrelevant next to a simulation's runtime.
type metrics struct {
	mu sync.Mutex

	submitted   uint64 // jobs accepted
	rejected    uint64 // jobs refused (drain, queue overflow, admission)
	done        uint64 // jobs reaching StateDone
	failed      uint64 // jobs reaching StateFailed
	wedged      uint64 // subset of failed whose cause is a *sim.WedgeError
	cacheHits   uint64 // submissions answered straight from the result store
	cacheMisses uint64
	dedupJoined uint64 // submissions that attached to an in-flight run
	simsStarted uint64 // underlying simulations begun
	simsDone    uint64 // underlying simulations finished (either way)

	// Overload-protection counters: submissions refused by the admission
	// controller or queue bound (shedQueueFull), and jobs shed from the
	// queue when their deadline expired before a worker freed up
	// (shedDeadline).
	shedQueueFull uint64
	shedDeadline  uint64

	// Warm-up snapshot counters: simulations whose warm-up phase was
	// restored from a stored chip snapshot (snapHits) or simulated and
	// captured (snapMisses), and the cumulative simulated cycles those
	// restores avoided — the checkpoint feature's payoff in one number.
	snapHits          uint64
	snapMisses        uint64
	warmupCyclesSaved uint64

	// ewmaJob is the exponentially-weighted moving average of simulation
	// execution seconds (dequeue → completion), the admission controller's
	// queue-wait estimator. Zero until the first completion.
	ewmaJob float64

	// simCycles/simWallNs accumulate the timing simulator's own
	// throughput across every completed simulation, so a scrape can
	// derive the server's aggregate MCPS (cache hits add nothing — no
	// simulation ran).
	simCycles uint64
	simWallNs uint64

	queued  int // jobs waiting for a worker
	running int // jobs whose simulation is executing

	// latencies is a ring of recent job latencies (seconds, submit →
	// terminal state, cache hits included) from which the quantile lines
	// are computed at scrape time.
	latencies [2048]float64
	latN      uint64

	// experiments holds one series summary per completed experiment,
	// keyed by content address, bounded at maxExperimentSeries with
	// insertion-order eviction (expOrder).
	experiments map[string]*expSeries
	expOrder    []string
}

// recordExperiment captures one completed simulation's series summary for
// the /metrics per-experiment table. A re-run of the same key (cache
// eviction and resubmission) overwrites the summary in place, keeping its
// accumulated cache-hit count.
func (m *metrics) recordExperiment(jr *JobResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.experiments == nil {
		m.experiments = make(map[string]*expSeries)
	}
	e, ok := m.experiments[jr.Key]
	if !ok {
		e = &expSeries{key: jr.Key, bench: jr.Bench, config: jr.Config}
		m.experiments[jr.Key] = e
		m.expOrder = append(m.expOrder, jr.Key)
		for len(m.expOrder) > maxExperimentSeries {
			delete(m.experiments, m.expOrder[0])
			m.expOrder = m.expOrder[1:]
		}
	}
	e.cycles = jr.Stats.Cycles
	e.mcps = jr.MCPS
	m.simCycles += jr.SimCycles
	m.simWallNs += uint64(jr.SimWallNs)
	if jr.Stats.Cycles > 0 {
		e.ipc = float64(jr.Stats.ScalarIns+jr.Stats.VectorIns) / float64(jr.Stats.Cycles)
	}
	if jr.Series != nil {
		e.samplePoints = len(jr.Series.Points)
		if ipc := jr.Series.MeanIPC(); ipc > 0 {
			e.ipc = ipc
		}
	}
}

// bumpExperimentHitLocked counts a cache-served submission against its
// experiment's summary. Requires m.mu.
func (m *metrics) bumpExperimentHitLocked(key string) {
	if e, ok := m.experiments[key]; ok {
		e.cacheHits++
	}
}

func (m *metrics) recordLatency(sec float64) {
	m.latencies[m.latN%uint64(len(m.latencies))] = sec
	m.latN++
}

// quantiles returns the p50/p99 of the retained latency window.
func (m *metrics) quantiles() (p50, p99 float64, n uint64) {
	n = m.latN
	fill := int(n)
	if fill > len(m.latencies) {
		fill = len(m.latencies)
	}
	if fill == 0 {
		return 0, 0, 0
	}
	window := make([]float64, fill)
	copy(window, m.latencies[:fill])
	sort.Float64s(window)
	at := func(q float64) float64 {
		i := int(q * float64(fill-1))
		return window[i]
	}
	return at(0.50), at(0.99), n
}

// render writes the Prometheus exposition: the whole service in one
// scrape. st is the store's health block, workers the pool size and
// queueDepth the flights waiting for a worker, all sampled by the caller
// (store and server have their own locks). The scrape is rendered into a
// buffer under m.mu and written after it is released, so a client that
// stops reading cannot stall the job accounting that takes m.mu.
func (m *metrics) render(w io.Writer, st StoreStatus, workers, queueDepth int) {
	var buf bytes.Buffer
	m.mu.Lock()
	m.renderLocked(&buf, st, workers, queueDepth)
	m.mu.Unlock()
	w.Write(buf.Bytes())
}

// renderLocked writes the exposition. Requires m.mu.
func (m *metrics) renderLocked(w io.Writer, st StoreStatus, workers, queueDepth int) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("tarserved_jobs_submitted_total", "Jobs accepted by POST /v1/jobs.", m.submitted)
	counter("tarserved_jobs_rejected_total", "Jobs refused (draining or queue overflow).", m.rejected)
	counter("tarserved_jobs_done_total", "Jobs that completed successfully.", m.done)
	counter("tarserved_jobs_failed_total", "Jobs that reached a failure state.", m.failed)
	counter("tarserved_jobs_wedged_total", "Failed jobs whose cause was a simulator wedge.", m.wedged)
	counter("tarserved_cache_hits_total", "Submissions answered from the result cache.", m.cacheHits)
	counter("tarserved_cache_misses_total", "Submissions that missed the result cache.", m.cacheMisses)
	counter("tarserved_dedup_joined_total", "Submissions deduplicated onto an in-flight simulation.", m.dedupJoined)
	counter("tarserved_sims_started_total", "Underlying simulations started.", m.simsStarted)
	counter("tarserved_sims_completed_total", "Underlying simulations finished.", m.simsDone)
	counter("tarserved_sim_cycles_total", "Simulated cycles across all completed simulations.", m.simCycles)
	fmt.Fprintf(w, "# HELP tarserved_sim_wall_seconds_total Host wall-clock spent inside the simulation loop across all completed simulations.\n# TYPE tarserved_sim_wall_seconds_total counter\ntarserved_sim_wall_seconds_total %g\n", float64(m.simWallNs)/1e9)
	counter("tarserved_snapshot_hits_total", "Simulations whose warm-up phase was restored from a stored chip snapshot.", m.snapHits)
	counter("tarserved_snapshot_misses_total", "Simulations that simulated (and captured) their warm-up phase.", m.snapMisses)
	counter("tarserved_warmup_cycles_saved_total", "Simulated cycles avoided by restoring warm-up snapshots.", m.warmupCyclesSaved)
	counter("tarserved_shed_queue_full_total", "Submissions refused because the queue was full or the estimated wait exceeded the deadline.", m.shedQueueFull)
	counter("tarserved_shed_deadline_total", "Queued jobs shed because their deadline expired before a worker freed up.", m.shedDeadline)
	gauge("tarserved_jobs_queued", "Jobs waiting for a worker.", m.queued)
	gauge("tarserved_jobs_running", "Jobs whose simulation is executing.", m.running)
	gauge("tarserved_cache_entries", "Entries resident in the result cache.", st.MemEntries)
	fmt.Fprintf(w, "# HELP tarserved_job_ewma_seconds EWMA of simulation execution seconds, the admission controller's wait estimator.\n# TYPE tarserved_job_ewma_seconds gauge\ntarserved_job_ewma_seconds %g\n", m.ewmaJob)
	gauge("tarserved_workers_alive", "Workers in the simulation pool.", workers)
	gauge("tarserved_workers_queue_depth", "Flights waiting for a worker.", queueDepth)
	renderStore(w, st)
	p50, p99, n := m.quantiles()
	fmt.Fprintf(w, "# HELP tarserved_job_latency_seconds Job latency, submit to terminal state.\n")
	fmt.Fprintf(w, "# TYPE tarserved_job_latency_seconds summary\n")
	fmt.Fprintf(w, "tarserved_job_latency_seconds{quantile=\"0.5\"} %g\n", p50)
	fmt.Fprintf(w, "tarserved_job_latency_seconds{quantile=\"0.99\"} %g\n", p99)
	fmt.Fprintf(w, "tarserved_job_latency_seconds_count %d\n", n)
	m.renderExperimentsLocked(w)
}

// renderStore writes the store-health gauges. The store tier is a label so
// one dashboard query covers memory-only and tiered deployments.
func renderStore(w io.Writer, st StoreStatus) {
	g := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s{tier=%q} %d\n", name, help, name, name, st.Tier, v)
	}
	g("tarserved_store_mem_entries", "Artifacts resident in the in-memory store tier.", int64(st.MemEntries))
	g("tarserved_store_disk_entries", "Artifacts resident in the disk store tier.", int64(st.DiskEntries))
	g("tarserved_store_disk_bytes", "Bytes of artifacts resident on disk.", st.DiskBytes)
	g("tarserved_store_warm_start", "Artifacts recovered from disk when the store opened.", int64(st.WarmStart))
	g("tarserved_store_warm_hits", "Gets answered by the disk tier after a memory miss.", int64(st.WarmHits))
	g("tarserved_store_quarantined", "Undecodable or schema-skewed files quarantined by the loader.", int64(st.Quarantined))
	g("tarserved_store_io_errors", "Disk reads and writes that failed (real or injected).", int64(st.IOErrors))
	g("tarserved_store_evicted", "Artifacts dropped by the disk tier's size cap.", int64(st.Evicted))
	g("tarserved_snapshot_entries", "Chip snapshots resident in the store.", int64(st.SnapEntries))
	g("tarserved_snapshot_bytes", "Bytes of chip snapshots resident in the store.", st.SnapBytes)
	g("tarserved_snapshot_quarantined", "Chip snapshots that failed envelope verification and were set aside.", int64(st.SnapQuarantined))
	g("tarserved_snapshot_evicted", "Chip snapshots dropped by the snapshot byte cap.", int64(st.SnapEvicted))
}

// renderExperimentsLocked writes the per-experiment series summaries as
// labeled gauges, in insertion order so the scrape is deterministic.
// Requires m.mu.
func (m *metrics) renderExperimentsLocked(w io.Writer) {
	if len(m.expOrder) == 0 {
		return
	}
	help := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	labels := func(e *expSeries) string {
		return fmt.Sprintf("{key=%q,bench=%q,config=%q}", e.key, e.bench, e.config)
	}
	help("tarserved_experiment_cycles", "Simulated cycles of the experiment's last run.")
	for _, k := range m.expOrder {
		e := m.experiments[k]
		fmt.Fprintf(w, "tarserved_experiment_cycles%s %d\n", labels(e), e.cycles)
	}
	help("tarserved_experiment_ipc", "Retired instructions per cycle (series mean when sampled).")
	for _, k := range m.expOrder {
		e := m.experiments[k]
		fmt.Fprintf(w, "tarserved_experiment_ipc%s %g\n", labels(e), e.ipc)
	}
	help("tarserved_experiment_mcps", "Simulator throughput of the experiment's last run, millions of simulated cycles per host wall second.")
	for _, k := range m.expOrder {
		e := m.experiments[k]
		fmt.Fprintf(w, "tarserved_experiment_mcps%s %g\n", labels(e), e.mcps)
	}
	help("tarserved_experiment_sample_points", "Retained cycle-interval sample points (0 = sampler off).")
	for _, k := range m.expOrder {
		e := m.experiments[k]
		fmt.Fprintf(w, "tarserved_experiment_sample_points%s %d\n", labels(e), e.samplePoints)
	}
	help("tarserved_experiment_cache_hits", "Submissions of this experiment answered from the result cache.")
	for _, k := range m.expOrder {
		e := m.experiments[k]
		fmt.Fprintf(w, "tarserved_experiment_cache_hits%s %d\n", labels(e), e.cacheHits)
	}
}
