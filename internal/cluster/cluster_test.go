package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// swapHandler lets a httptest server exist (and know its URL) before the
// serve.Server that answers on it — membership needs the URLs, the server
// needs the membership.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "starting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

type testNode struct {
	url string
	srv *serve.Server
	m   *cluster.Membership
}

// startCluster brings up n in-process tarserved nodes over one shared
// store directory, each with its own membership view and forwarder —
// the same wiring cmd/tarserved does in cluster mode.
func startCluster(t *testing.T, n int) []*testNode {
	t.Helper()
	dir := t.TempDir()
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	nodes := make([]*testNode, n)
	for i := 0; i < n; i++ {
		st, err := serve.OpenSharedStore(dir, 64, nil)
		if err != nil {
			t.Fatalf("shared store: %v", err)
		}
		m := cluster.NewMembership(urls)
		nodeID := fmt.Sprintf("n%d", i+1)
		srv := serve.New(serve.Options{
			Workers:    4,
			QueueDepth: 64,
			Store:      st,
			Router:     cluster.NewForwarder(urls[i], nodeID, m),
			NodeID:     nodeID,
			ClusterInfo: func() (uint64, int) {
				_, gen := m.Ring()
				return gen, len(m.Alive())
			},
		})
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Drain(ctx)
		})
		swaps[i].set(srv.Handler())
		nodes[i] = &testNode{url: urls[i], srv: srv, m: m}
	}
	return nodes
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// submitAndWait drives one job to a terminal state through the node or
// router at base.
func submitAndWait(t *testing.T, base, bench, config string) *serve.JobStatus {
	t.Helper()
	return submitRequestAndWait(t, base, &serve.SubmitRequest{Bench: bench, Config: config, Scale: "test"})
}

// submitRequestAndWait submits req and long-polls it to a terminal state.
func submitRequestAndWait(t *testing.T, base string, req *serve.SubmitRequest) *serve.JobStatus {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s@%s: HTTP %d: %s", req.Bench, req.Config, resp.StatusCode, body)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit decode: %v (%s)", err, body)
	}
	deadline := time.Now().Add(60 * time.Second)
	for st.State != serve.StateDone && st.State != serve.StateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", st.ID, st.State)
		}
		resp, body := getJSON(t, base+"/v1/jobs/"+st.ID+"?wait=2s")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %s", st.ID, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status decode: %v", err)
		}
	}
	return &st
}

// deadPeer is an address nothing listens on (the discard port).
const deadPeer = "http://127.0.0.1:9"

// experimentOwnedBy returns a dgemm@T test-scale experiment that the ring
// over members places on owner. The members stay fixed and the experiment
// varies, in its clock_ghz knob: each candidate's key lands on owner
// independently, with owner's share of the ring (about a half for two
// members), so all 64 candidates missing is vanishingly unlikely. Varying
// a member's address instead fails whenever one live virtual node sits
// just past the key, since that node blocks every candidate at once.
func experimentOwnedBy(t *testing.T, members []string, owner string) *serve.SubmitRequest {
	t.Helper()
	ring := cluster.NewRing(members)
	for i := 0; i < 64; i++ {
		req := &serve.SubmitRequest{Bench: "dgemm", Config: "T", Scale: "test",
			Knobs: map[string]float64{"clock_ghz": 2 + float64(i)/64}}
		key, err := serve.RouteKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Lookup(key) == owner {
			return req
		}
	}
	t.Fatalf("none of 64 experiments is placed on %s", owner)
	return nil
}

func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, body := getJSON(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(string(body))
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

func clusterSum(t *testing.T, nodes []*testNode, name string) float64 {
	t.Helper()
	total := 0.0
	for _, n := range nodes {
		total += metricValue(t, n.url, name)
	}
	return total
}

// The tentpole invariant: a 3-node cluster submits every experiment via
// every node concurrently, yet each unique confhash simulates exactly once
// fleet-wide — mis-routed flights forward to the ring owner, and repeats
// land as cross-node dedup hits there.
func TestClusterSingleFlight(t *testing.T) {
	nodes := startCluster(t, 3)
	pairs := [][2]string{{"dgemm", "T"}, {"streams_copy", "T"}, {"dgemm", "EV8"}}

	var wg sync.WaitGroup
	for _, p := range pairs {
		for _, n := range nodes {
			wg.Add(1)
			go func(base, bench, config string) {
				defer wg.Done()
				st := submitAndWait(t, base, bench, config)
				if st.State != serve.StateDone {
					t.Errorf("%s@%s via %s: state %s (%+v)", bench, config, base, st.State, st.Error)
				}
			}(n.url, p[0], p[1])
		}
	}
	wg.Wait()

	if sims := clusterSum(t, nodes, "tarserved_sims_started_total"); sims != float64(len(pairs)) {
		t.Errorf("cluster ran %.0f simulations for %d unique experiments — single-flight broken", sims, len(pairs))
	}
	if fwd := clusterSum(t, nodes, "tarserved_jobs_forwarded_total"); fwd < 1 {
		t.Errorf("no flight was forwarded — the ring is not spreading ownership (forwarded=%.0f)", fwd)
	}
	if dedup := clusterSum(t, nodes, "tarserved_cross_node_dedup_total"); dedup < 1 {
		t.Errorf("no cross-node dedup hit recorded (dedup=%.0f)", dedup)
	}
	// The same experiment resubmitted anywhere after completion is a shared
	// store hit — no queueing, no forwarding.
	st := submitAndWait(t, nodes[2].url, "dgemm", "T")
	if !st.CacheHit {
		t.Errorf("post-completion resubmission was not a cache hit: %+v", st)
	}
	if sims := clusterSum(t, nodes, "tarserved_sims_started_total"); sims != float64(len(pairs)) {
		t.Errorf("resubmission re-simulated: %.0f sims", sims)
	}
}

// A node whose ring owner is unreachable falls back to local execution:
// placement degrades, availability does not. The dead peer leaves the ring
// on the first failed forward.
func TestClusterForwardFallback(t *testing.T) {
	dir := t.TempDir()
	sh := &swapHandler{}
	ts := httptest.NewServer(sh)
	t.Cleanup(ts.Close)

	// Submit an experiment the dead peer owns, so the live node must
	// attempt (and survive) the forward.
	members := []string{ts.URL, deadPeer}
	req := experimentOwnedBy(t, members, deadPeer)

	st, err := serve.OpenSharedStore(dir, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := cluster.NewMembership(members)
	srv := serve.New(serve.Options{
		Workers: 2, QueueDepth: 16, Store: st,
		Router: cluster.NewForwarder(ts.URL, "n1", m), NodeID: "n1",
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	sh.set(srv.Handler())

	js := submitRequestAndWait(t, ts.URL, req)
	if js.State != serve.StateDone {
		t.Fatalf("job did not survive the dead owner: %+v", js)
	}
	if fb := metricValue(t, ts.URL, "tarserved_forward_fallback_total"); fb != 1 {
		t.Errorf("forward_fallback = %.0f, want 1", fb)
	}
	if alive := m.Alive(); len(alive) != 1 || alive[0] != ts.URL {
		t.Errorf("dead peer still on ring: %v", alive)
	}
}

// The router front door: content-addressed placement, node-namespaced ids,
// reads routed back by suffix, list fan-out, and the same wire protocol a
// single node speaks.
func TestRouterEndToEnd(t *testing.T) {
	nodes := startCluster(t, 3)
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	p := cluster.NewProxy(urls, 0) // hedging exercised separately
	rt := httptest.NewServer(p.Handler())
	t.Cleanup(rt.Close)

	st := submitAndWait(t, rt.URL, "dgemm", "T")
	if st.State != serve.StateDone {
		t.Fatalf("job via router: %+v", st)
	}
	local, name, ok := strings.Cut(st.ID, "@")
	if !ok || local == "" || !strings.HasPrefix(name, "n") {
		t.Fatalf("router id %q is not node-namespaced", st.ID)
	}

	resp, body := getJSON(t, rt.URL+"/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result via router: HTTP %d: %s", resp.StatusCode, body)
	}

	// Identical resubmission routes to the same node and is a cache hit.
	st2 := submitAndWait(t, rt.URL, "dgemm", "T")
	if !st2.CacheHit {
		t.Errorf("resubmission via router not a cache hit: %+v", st2)
	}
	if _, name2, _ := strings.Cut(st2.ID, "@"); name2 != name {
		t.Errorf("resubmission routed to %s, first went to %s — placement not content-addressed", name2, name)
	}

	// The merged job list carries the global ids.
	resp, body = getJSON(t, rt.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list via router: HTTP %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(st.ID)) {
		t.Errorf("job list missing global id %s: %s", st.ID, body)
	}

	// Sweeps route by canonical spec key and proxy back by id suffix.
	spec := map[string]any{
		"config": "T", "benches": []string{"dgemm"}, "scale": "test",
		"axes": map[string]any{"lanes": map[string]any{"values": []float64{8, 16}}},
	}
	resp, body = postJSON(t, rt.URL+"/v1/sweeps", spec)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep via router: HTTP %d: %s", resp.StatusCode, body)
	}
	var sw struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sw.ID, "@") {
		t.Fatalf("sweep id %q not namespaced", sw.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for sw.State != "done" && sw.State != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in %s", sw.ID, sw.State)
		}
		resp, body = getJSON(t, rt.URL+"/v1/sweeps/"+sw.ID+"?wait=500ms")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status: HTTP %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &sw); err != nil {
			t.Fatal(err)
		}
	}
	if sw.State != "done" {
		t.Fatalf("sweep failed: %s", body)
	}
	resp, _ = getJSON(t, rt.URL+"/v1/sweeps/"+sw.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep result via router: HTTP %d", resp.StatusCode)
	}

	// Router introspection: per-node health and its own counters.
	resp, body = getJSON(t, rt.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router healthz: HTTP %d", resp.StatusCode)
	}
	var hz struct {
		Nodes []struct {
			Name  string `json:"name"`
			Alive bool   `json:"alive"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if len(hz.Nodes) != 3 {
		t.Fatalf("router healthz lists %d nodes, want 3: %s", len(hz.Nodes), body)
	}
	for _, n := range hz.Nodes {
		if !n.Alive {
			t.Errorf("node %s reported dead: %s", n.Name, body)
		}
	}
	if reqs := metricValue(t, rt.URL, "tarrouter_requests_total"); reqs < 1 {
		t.Errorf("tarrouter_requests_total = %.0f", reqs)
	}

	// The cluster behind the router still simulated each experiment once:
	// one job (its sweep-baseline sibling may share) plus the sweep points.
	if dupes := clusterSum(t, nodes, "tarserved_sims_started_total"); dupes > 6 {
		t.Errorf("suspiciously many simulations for 1 job + 2-point sweep: %.0f", dupes)
	}
}

// Hedged status waits: when the owner stalls, the router re-submits to
// another node after the hedge threshold and returns the winner under the
// original id; the loser's long-poll is cancelled. Exactly one response.
func TestRouterHedgeCancelsLoser(t *testing.T) {
	primaryCancelled := make(chan struct{}, 4)
	var hedgePosts sync.Map
	mkNode := func(name string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			switch {
			case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && r.Header.Get(serve.ForwardedHeader) != "":
				// Hedge re-submission: the shared store would answer
				// instantly; model that with an immediate done.
				hedgePosts.Store(name, r.Header.Get(serve.ForwardedHeader))
				json.NewEncoder(w).Encode(serve.JobStatus{ID: "job-hedge", State: serve.StateDone, CacheHit: true, Key: "k0"})
			case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
				w.WriteHeader(http.StatusAccepted)
				json.NewEncoder(w).Encode(serve.JobStatus{ID: "job-1", State: serve.StateQueued, Key: "k0"})
			case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
				// A stalled owner: never answer until the router gives up on
				// us. Record that the loser really was cancelled.
				<-r.Context().Done()
				primaryCancelled <- struct{}{}
			default:
				http.NotFound(w, r)
			}
		}))
	}
	a, b := mkNode("a"), mkNode("b")
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)

	p := cluster.NewProxy([]string{a.URL, b.URL}, 100*time.Millisecond)
	rt := httptest.NewServer(p.Handler())
	t.Cleanup(rt.Close)

	resp, body := postJSON(t, rt.URL+"/v1/jobs", map[string]any{"bench": "dgemm", "config": "T", "scale": "test"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	globalID := st.ID

	start := time.Now()
	resp, body = getJSON(t, rt.URL+"/v1/jobs/"+globalID+"?wait=10s")
	took := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged wait: HTTP %d: %s", resp.StatusCode, body)
	}
	var final serve.JobStatus
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("hedged wait returned state %s: %s", final.State, body)
	}
	if final.ID != globalID {
		t.Errorf("winner rendered under id %q, want the original %q", final.ID, globalID)
	}
	if took > 5*time.Second {
		t.Errorf("hedge took %s — the stalled owner was waited out", took)
	}
	select {
	case <-primaryCancelled:
	case <-time.After(5 * time.Second):
		t.Error("the losing long-poll was never cancelled")
	}
	if fired := metricValue(t, rt.URL, "tarrouter_hedges_fired_total"); fired != 1 {
		t.Errorf("hedges_fired = %.0f, want 1", fired)
	}
	if wins := metricValue(t, rt.URL, "tarrouter_hedge_wins_total"); wins != 1 {
		t.Errorf("hedge_wins = %.0f, want 1", wins)
	}
	count := 0
	hedgePosts.Range(func(_, _ any) bool { count++; return true })
	if count != 1 {
		t.Errorf("hedge re-submitted to %d nodes, want exactly 1", count)
	}
}

// Submission failover: when the ring owner is down the router tries the
// successor; when every candidate is down the client gets the closed-set
// peer_unreachable envelope, not a hung connection.
func TestRouterFailoverAndPeerUnreachable(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.JobStatus{ID: "job-1", State: serve.StateQueued})
	}))
	t.Cleanup(live.Close)

	members := []string{live.URL, deadPeer}
	req := experimentOwnedBy(t, members, deadPeer)

	p := cluster.NewProxy(members, 0)
	rt := httptest.NewServer(p.Handler())
	t.Cleanup(rt.Close)

	resp, body := postJSON(t, rt.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("failover submit: HTTP %d: %s", resp.StatusCode, body)
	}
	if fo := metricValue(t, rt.URL, "tarrouter_failovers_total"); fo != 1 {
		t.Errorf("failovers = %.0f, want 1", fo)
	}

	// All candidates down.
	p2 := cluster.NewProxy([]string{"http://127.0.0.1:9", "http://127.0.0.1:19"}, 0)
	rt2 := httptest.NewServer(p2.Handler())
	t.Cleanup(rt2.Close)
	resp, body = postJSON(t, rt2.URL+"/v1/jobs", map[string]any{"bench": "dgemm", "config": "T", "scale": "test"})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-dead submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var envelope struct {
		Error serve.ErrorJSON `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != serve.ErrCodePeerUnreachable {
		t.Errorf("error code %q, want %q", envelope.Error.Code, serve.ErrCodePeerUnreachable)
	}
}
