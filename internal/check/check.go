// Package check is the simulator's opt-in microarchitectural invariant
// checker. The timing model is trusted to be *fast*; this package is how we
// prove it is also *right* while it runs. When enabled (sim.Config.Check /
// tarsim -check), components validate structural invariants at every
// retirement — ROB in-order retirement, store-queue forwarding consistency,
// L1/L2 inclusion. The checker only observes: a checked run ticks the same
// cycles and produces the same statistics as an unchecked one. The first
// violation aborts the run with a bounded ring of the events that led up to
// it.
//
// The checker is deliberately stateless about the machine: components own
// their invariant logic and call Failf with the evidence; the checker owns
// only the verdict and the history. That keeps the package free of import
// cycles (it sees no core/l2/vbox types) and keeps the per-retirement cost
// near zero when disabled (a nil *Checker no-ops every method).
package check

import "fmt"

// ringSize bounds the event history attached to a violation report. 64
// events is enough to show the retirement pattern around a failure without
// turning every WedgeError into a core dump.
const ringSize = 64

// Violation describes the first invariant failure observed in a run.
type Violation struct {
	// Invariant names the broken rule, e.g. "retire-order", "store-queue",
	// "l1-inclusion".
	Invariant string
	// Cycle is the simulated cycle at which the violation was detected.
	Cycle uint64
	// Detail is the component's formatted evidence.
	Detail string
	// History is the bounded tail of recorded events, oldest first.
	History []string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("invariant %q violated at cycle %d: %s", v.Invariant, v.Cycle, v.Detail)
}

// Checker collects events and records the first violation. A nil *Checker
// is valid and disables all checking; components may call every method
// unconditionally. Checker is not safe for concurrent use — one chip, one
// goroutine, one checker, matching the simulator's execution model.
type Checker struct {
	ring  [ringSize]string
	n     int // total events ever recorded
	first *Violation

	// lastSeq tracks per-thread retirement order for RetireInOrder.
	lastSeq map[int]uint64
}

// New returns an enabled checker.
func New() *Checker {
	return &Checker{lastSeq: make(map[int]uint64)}
}

// Enabled reports whether checking is on.
func (c *Checker) Enabled() bool { return c != nil }

// Record appends a formatted event to the bounded history ring.
func (c *Checker) Record(format string, args ...any) {
	if c == nil || c.first != nil {
		return
	}
	c.ring[c.n%ringSize] = fmt.Sprintf(format, args...)
	c.n++
}

// Failf records the first violation; later failures are ignored so the
// report always shows the original divergence, not its knock-on effects.
func (c *Checker) Failf(invariant string, cycle uint64, format string, args ...any) {
	if c == nil || c.first != nil {
		return
	}
	c.first = &Violation{
		Invariant: invariant,
		Cycle:     cycle,
		Detail:    fmt.Sprintf(format, args...),
		History:   c.history(),
	}
}

// history returns the recorded events oldest-first.
func (c *Checker) history() []string {
	if c.n == 0 {
		return nil
	}
	k := c.n
	if k > ringSize {
		k = ringSize
	}
	out := make([]string, 0, k)
	for j := c.n - k; j < c.n; j++ {
		out = append(out, c.ring[j%ringSize])
	}
	return out
}

// Violation returns the first recorded violation, or nil.
func (c *Checker) Violation() *Violation {
	if c == nil {
		return nil
	}
	return c.first
}

// Violated reports whether any invariant has failed. The run harness polls
// this to abort at the first violation instead of simulating on top of a
// known-bad state.
func (c *Checker) Violated() bool { return c != nil && c.first != nil }

// RetireInOrder validates that thread's retirement sequence numbers are
// strictly increasing — the ROB contract. Builder sequence numbers are
// global across threads, so the order is per-thread, not chip-wide.
func (c *Checker) RetireInOrder(cycle uint64, thread int, seq uint64) {
	if c == nil || c.first != nil {
		return
	}
	if last, ok := c.lastSeq[thread]; ok && seq <= last {
		c.Failf("retire-order", cycle,
			"thread %d retired seq %d after seq %d", thread, seq, last)
		return
	}
	c.lastSeq[thread] = seq
	c.Record("cy=%d t%d retire seq=%d", cycle, thread, seq)
}
