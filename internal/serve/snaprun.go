package serve

import (
	"errors"
	"sync"

	"repro/internal/confhash"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/workloads"
)

// warmupFlight is one in-flight warm-up simulation. The first runner of a
// warm-up key (the leader) simulates the warm-up phase and publishes the
// chip snapshot the moment the boundary is reached — not when its whole
// run finishes — so concurrent runners of the same key fork from the blob
// as soon as it exists instead of each simulating their own warm-up. This
// is what makes an N-point sweep whose points differ only post-warm-up
// cost the warm-up exactly once even when the points run on N workers at
// the same time.
type warmupFlight struct {
	done chan struct{}
	blob []byte // nil when the leader failed before the boundary
}

// snapshotRun wraps the default execution path with warm-up snapshot
// reuse against the store's snapshots namespace. It is the server's
// RunFunc unless a test stub overrides Run.
//
// Reuse is skipped — falling back to a plain straight run — whenever a
// snapshot could be refused or observable: benchmarks without a warm-up
// phase, fault campaigns (injector state is not serializable), and sampled
// runs (the sample series of a straight run covers the warm-up; a restored
// run's would not, breaking artifact byte-identity). A stored blob that
// fails to restore (corruption past the envelope check, schema or counter
// skew) also falls back; restore failure is always a cache miss, never a
// job failure.
func (s *Server) snapshotRun() RunFunc {
	var mu sync.Mutex
	flights := make(map[string]*warmupFlight)
	return func(bench string, cfg *sim.Config, scale workloads.Scale) (*workloads.Result, error) {
		b, err := workloads.Get(bench)
		if err != nil {
			return nil, err
		}
		if b.Setup == nil || cfg.Faults != nil || cfg.Sampling() != 0 {
			return b.Run(cfg, scale)
		}
		wkey := confhash.WarmupKey(bench, scale.String(), cfg)
		restored := func(blob []byte) (*workloads.Result, error) {
			res, err := b.RunOpt(cfg, scale, workloads.RunOpts{WarmupSnapshot: blob})
			if err != nil && (errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrSchema)) {
				// The blob could not be restored: miss, simulate straight.
				s.m.mu.Lock()
				s.m.snapMisses++
				s.m.mu.Unlock()
				return b.Run(cfg, scale)
			}
			if err == nil {
				s.m.mu.Lock()
				s.m.snapHits++
				s.m.warmupCyclesSaved += res.WarmupCycles
				s.m.mu.Unlock()
			}
			return res, err
		}
		if blob, ok := s.store.Get(store.Snapshots, wkey); ok {
			return restored(blob)
		}
		mu.Lock()
		if f, ok := flights[wkey]; ok {
			mu.Unlock()
			<-f.done
			if f.blob != nil {
				return restored(f.blob)
			}
			// The leader died before the boundary; simulate our own
			// warm-up rather than racing to become the next leader.
			s.m.mu.Lock()
			s.m.snapMisses++
			s.m.mu.Unlock()
			return b.Run(cfg, scale)
		}
		f := &warmupFlight{done: make(chan struct{})}
		flights[wkey] = f
		mu.Unlock()
		published := false
		publish := func(blob []byte) {
			published = true
			f.blob = blob
			close(f.done)
			mu.Lock()
			delete(flights, wkey)
			mu.Unlock()
		}
		// The leader must always publish — a panic or wedge before the
		// boundary would otherwise strand every follower on f.done.
		defer func() {
			if !published {
				publish(nil)
			}
		}()
		res, err := b.RunOpt(cfg, scale, workloads.RunOpts{
			OnWarmupSnapshot: func(_ uint64, blob []byte) {
				s.store.Put(store.Snapshots, wkey, blob)
				publish(blob)
			},
		})
		s.m.mu.Lock()
		s.m.snapMisses++
		s.m.mu.Unlock()
		return res, err
	}
}
