package sim

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/vasm"
)

// wedgeKernel is a long-running memory-bound vector kernel: plenty of
// pre-storm retirement, long memory waits, and far too much remaining work
// to halt before an injected stall storm lands.
func wedgeKernel(b *vasm.Builder) {
	base := b.AllocF64(1<<16, 0)
	b.Li(isa.R(1), int64(base))
	b.SetVLImm(isa.R(9), 128)
	b.Loop(isa.R(2), 64, func(iter int) {
		b.VLdQ(isa.V(1), isa.R(1), int64(iter%8*1024))
		b.VV(isa.OpVADDT, isa.V(2), isa.V(1), isa.V(1))
		b.VStQ(isa.V(2), isa.R(1), int64(iter%8*1024))
	})
	b.Halt()
}

// TestWatchdogWedgeError: a stall storm guarantees a wedge; the watchdog
// must convert it into a diagnosable WedgeError instead of a hang or panic.
func TestWatchdogWedgeError(t *testing.T) {
	cfg := *T()
	cfg.Faults = &faults.Config{StallStormFrom: 300}
	cfg.Watchdog = 30_000
	_, err := Execute(RunSpec{Config: &cfg, Kernel: wedgeKernel})
	var w *WedgeError
	if !errors.As(err, &w) {
		t.Fatalf("err = %v (%T), want *WedgeError", err, err)
	}
	if w.Reason != ReasonWatchdog {
		t.Errorf("Reason = %q, want %q", w.Reason, ReasonWatchdog)
	}
	if w.Window != 30_000 {
		t.Errorf("Window = %d, want the configured 30000", w.Window)
	}
	if w.Cycle < 300 {
		t.Errorf("Cycle = %d, want after the cy-300 storm start", w.Cycle)
	}
	if w.Retired == 0 {
		t.Error("Retired = 0, want the pre-storm retirement count")
	}
	if !strings.Contains(w.Error(), "no retirement progress") {
		t.Errorf("Error() = %q missing the watchdog explanation", w.Error())
	}
	if !strings.Contains(w.Error(), "rob=") {
		t.Errorf("Error() = %q missing the occupancy snapshot", w.Error())
	}
}

// TestWedgeCycleAfterSetup pins the watchdog baseline of a later phase: the
// retired count as it stands when the phase starts. A stall storm that lands
// exactly at the end of the warm-up freezes the region of interest from its
// first cycle, so the watchdog must convict at ROI start + window + 1 — the
// first tick of the ROI is not progress.
func TestWedgeCycleAfterSetup(t *testing.T) {
	const roiStart, window = 162, 30_000
	cfg := *T()
	cfg.Faults = &faults.Config{StallStormFrom: roiStart}
	cfg.Watchdog = window
	out, err := Execute(RunSpec{
		Config: &cfg,
		Setup: func(b *vasm.Builder) {
			base := b.AllocF64(64, 0)
			b.Li(isa.R(1), int64(base))
			b.LdT(isa.F(1), isa.R(1), 0)
		},
		Kernel: wedgeKernel,
	})
	var w *WedgeError
	if !errors.As(err, &w) {
		t.Fatalf("err = %v, want *WedgeError", err)
	}
	if out.WarmupCycles != roiStart {
		t.Fatalf("warm-up ends at cycle %d, want %d", out.WarmupCycles, roiStart)
	}
	if w.Reason != ReasonWatchdog || w.Cycle != roiStart+window+1 {
		t.Errorf("wedge = %q at cycle %d, want %q at cycle %d",
			w.Reason, w.Cycle, ReasonWatchdog, roiStart+window+1)
	}
}

// TestDeadlineWedge: an expired wall-clock budget aborts promptly with the
// deadline reason, even on a healthy machine.
func TestDeadlineWedge(t *testing.T) {
	cfg := *T()
	cfg.Deadline = time.Nanosecond
	_, err := Execute(RunSpec{Config: &cfg, Kernel: wedgeKernel})
	var w *WedgeError
	if !errors.As(err, &w) {
		t.Fatalf("err = %v, want *WedgeError", err)
	}
	if w.Reason != ReasonDeadline {
		t.Errorf("Reason = %q, want %q", w.Reason, ReasonDeadline)
	}
}

// TestTraceDeathSurfacesAsWedge: a kernel that dies mid-trace never emits
// HALT; the health poll must report the positional build error promptly
// instead of spinning until the watchdog.
func TestTraceDeathSurfacesAsWedge(t *testing.T) {
	cfg := *T()
	_, err := Execute(RunSpec{Config: &cfg, Kernel: func(b *vasm.Builder) {
		b.Li(isa.R(1), 1234) // not 8-aligned
		b.LdT(isa.F(1), isa.R(1), 0)
		b.Halt()
	}})
	var w *WedgeError
	if !errors.As(err, &w) {
		t.Fatalf("err = %v, want *WedgeError", err)
	}
	if w.Reason != ReasonTrace {
		t.Errorf("Reason = %q, want %q", w.Reason, ReasonTrace)
	}
	var be *vasm.BuildError
	if !errors.As(err, &be) {
		t.Fatalf("wedge does not wrap the *vasm.BuildError: %v", err)
	}
	if be.Seq != 2 {
		t.Errorf("BuildError.Seq = %d, want 2 (the ldt)", be.Seq)
	}
	if !strings.Contains(be.Error(), "unaligned") {
		t.Errorf("BuildError = %q missing the cause", be.Error())
	}
}

// TestTraceDeathReportIsDeterministic: a dead trace is reported once the
// core has drained it, so its cycle and retired count are the same on every
// run. Reported as soon as the producer failed, they depended on how many
// records the producer had sent when the poll came, which GOMAXPROCS=1 made
// vary from run to run.
func TestTraceDeathReportIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	kernel := func(b *vasm.Builder) {
		for i := 0; i < 200_000; i++ {
			b.AddImm(isa.R(1), isa.R(1), 1)
		}
		b.Li(isa.R(2), 1234) // not 8-aligned
		b.LdT(isa.F(1), isa.R(2), 0)
		b.Halt()
	}
	var first *WedgeError
	for run := 0; run < 30; run++ {
		_, err := Execute(RunSpec{Config: T(), Kernel: kernel})
		var w *WedgeError
		if !errors.As(err, &w) || w.Reason != ReasonTrace {
			t.Fatalf("run %d: err = %v, want a %q *WedgeError", run, err, ReasonTrace)
		}
		if first == nil {
			first = w
			continue
		}
		if w.Cycle != first.Cycle || w.Retired != first.Retired {
			t.Fatalf("run %d reported cycle=%d retired=%d, run 0 cycle=%d retired=%d",
				run, w.Cycle, w.Retired, first.Cycle, first.Retired)
		}
	}
}

// TestStalledTraceFailsAtDeadline: a kernel that stops calling the Builder
// leaves the core blocked inside Next, where no deadline poll runs. The
// deadline must still fail the run, without waiting for the producer.
func TestStalledTraceFailsAtDeadline(t *testing.T) {
	var stalled atomic.Bool
	stalled.Store(true)
	t.Cleanup(func() { stalled.Store(false) })
	cfg := *T()
	cfg.Deadline = 200 * time.Millisecond
	errc := make(chan error, 1)
	go func() {
		_, err := Execute(RunSpec{Config: &cfg, Kernel: func(b *vasm.Builder) {
			b.Li(isa.R(1), 1)
			for stalled.Load() {
				runtime.Gosched()
			}
		}})
		errc <- err
	}()
	select {
	case err := <-errc:
		var w *WedgeError
		if !errors.As(err, &w) || w.Reason != ReasonDeadline {
			t.Fatalf("err = %v, want a %q *WedgeError", err, ReasonDeadline)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute still running 5 s after its 200 ms deadline")
	}
}

// TestCheckerCleanOnKernelCases: the invariant checker must pass every
// kernel case without a violation — the checker exists to catch bugs, not
// to manufacture them.
func TestCheckerCleanOnKernelCases(t *testing.T) {
	for _, c := range kernelCases() {
		for _, base := range c.configs {
			cfg := *base
			cfg.Check = true
			if _, err := runOnChip(&cfg, c.kernel); err != nil {
				t.Errorf("%s/%s: %v", cfg.Name, c.name, err)
			}
		}
	}
}

// TestCheckedRunBitIdentical: enabling the checker must not change simulated
// time — it only observes.
func TestCheckedRunBitIdentical(t *testing.T) {
	for _, c := range kernelCases() {
		base := c.configs[0]
		plain := runK(t, base, c.kernel)
		cfg := *base
		cfg.Check = true
		chip, err := runOnChip(&cfg, c.kernel)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if *chip.Stats != *plain {
			t.Errorf("%s: checker changed the statistics:\n  checked: %+v\n  plain:   %+v",
				c.name, *chip.Stats, *plain)
		}
	}
}
