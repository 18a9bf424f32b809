package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestNamespaceCoversEveryStatsField is the registration half of the
// "never silently dropped" guarantee: every uint64 counter field of the
// compat struct must have exactly one namespaced metric, and every def must
// resolve. (NewRegistry panics on drift; this test makes the failure a
// readable diff instead of a panic trace.)
func TestNamespaceCoversEveryStatsField(t *testing.T) {
	byField := map[string]string{}
	for _, d := range Defs() {
		if prev, dup := byField[d.Field]; dup {
			t.Errorf("field %s registered twice (%s and %s)", d.Field, prev, d.Name)
		}
		byField[d.Field] = d.Name
		comp, _, ok := strings.Cut(d.Name, ".")
		if !ok {
			t.Errorf("metric %q is not namespaced component.metric", d.Name)
		}
		switch comp {
		case "core", "vbox", "l2", "zbox", "mem", "sim":
		default:
			t.Errorf("metric %q uses unknown component namespace %q", d.Name, comp)
		}
	}
	st := reflect.TypeOf(stats.Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			continue
		}
		if _, ok := byField[f.Name]; !ok {
			t.Errorf("stats.Stats.%s has no registered metric — add it to counterDefs", f.Name)
		}
	}
	// And construction itself must hold the same invariant.
	_ = NewRegistry()
}

// TestCompatViewIsLive: counter increments through handles are immediately
// visible in the stats.Stats compat view, and vice versa for direct writes.
func TestCompatViewIsLive(t *testing.T) {
	r := NewRegistry()
	c := r.Scope("l2").Counter("vec_slices")
	c.Add(41)
	c.Inc()
	if got := r.Stats().L2VecSlices; got != 42 {
		t.Fatalf("compat view L2VecSlices = %d, want 42", got)
	}
	r.Stats().UsefulBytes = 1 << 20 // harness-style direct write stays legal
	if got := r.Counter("sim.useful_bytes").Value(); got != 1<<20 {
		t.Fatalf("direct write invisible through handle: %d", got)
	}
}

// TestCounterMutationsZeroAlloc is the hot-path contract: counter
// increments must not allocate. CI runs this on every push.
func TestCounterMutationsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Scope("core").Counter("flops")
	p := r.Counter("l2.maf_peak")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(128)
		p.Peak(c.Value())
	}); n != 0 {
		t.Fatalf("counter mutations allocate %v allocs/op, want 0", n)
	}
}

// BenchmarkRegistryOverhead measures the raw handle increment next to the
// direct struct-field increment it replaced; run with -benchmem to see the
// zero-alloc claim.
func BenchmarkRegistryOverhead(b *testing.B) {
	b.Run("handle", func(b *testing.B) {
		r := NewRegistry()
		c := r.Scope("core").Counter("flops")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(2)
		}
	})
	b.Run("direct", func(b *testing.B) {
		var st stats.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.Flops += 2
		}
	})
}

// TestGaugeRegistrationAndSnapshot: gauges read in registration order, with
// the cycle forwarded to probes that need it.
func TestGaugeRegistrationAndSnapshot(t *testing.T) {
	r := NewRegistry()
	depth := 3
	r.Scope("l2").Gauge("read_q", "read queue", func(uint64) int { return depth })
	r.Scope("vbox").Gauge("ports_busy", "busy ports", func(cy uint64) int { return int(cy % 7) })
	got := r.ReadGauges(16)
	want := []GaugeSample{{Name: "l2.read_q", Value: 3}, {Name: "vbox.ports_busy", Value: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadGauges = %+v, want %+v", got, want)
	}
	vals := r.ReadGaugeValues(16, nil)
	if !reflect.DeepEqual(vals, []int{3, 2}) {
		t.Fatalf("ReadGaugeValues = %v", vals)
	}
}

// TestSeriesRing: the ring retains the newest Cap points in order and
// reports what it dropped.
func TestSeriesRing(t *testing.T) {
	s := NewSeries(100, 4, []string{"l2.read_q"})
	for i := 1; i <= 10; i++ {
		s.Add(Point{Cycle: uint64(i * 100), Retired: uint64(i), Gauges: []int{i}})
	}
	if s.Len() != 4 || s.Dropped() != 6 {
		t.Fatalf("Len=%d Dropped=%d, want 4/6", s.Len(), s.Dropped())
	}
	pts := s.Points()
	for i, p := range pts {
		wantCycle := uint64((7 + i) * 100)
		if p.Cycle != wantCycle {
			t.Fatalf("point %d cycle = %d, want %d (oldest-first)", i, p.Cycle, wantCycle)
		}
	}
	d := s.Dump()
	if d.Every != 100 || d.Dropped != 6 || len(d.Points) != 4 || d.Gauges[0] != "l2.read_q" {
		t.Fatalf("dump = %+v", d)
	}
}

// TestWriteChromeTrace: the exported file must be valid JSON in the Chrome
// trace-event object format — a traceEvents array of counter events with
// microsecond timestamps — or Perfetto will refuse to load it.
func TestWriteChromeTrace(t *testing.T) {
	s := NewSeries(1000, 0, []string{"l2.read_q", "l2.maf", "vbox.ports_busy"})
	s.Add(Point{Cycle: 1000, Retired: 500, IPC: 0.5, RawBytes: 4096, Gauges: []int{1, 2, 3}})
	s.Add(Point{Cycle: 2000, Retired: 1500, IPC: 1.0, RawBytes: 0, Gauges: []int{0, 1, 0}})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, "dgemm on T", 1.25, s.Dump()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace is not valid JSON:\n%s", buf.String())
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	counters, meta := 0, 0
	var sawIPC bool
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "C":
			counters++
			if ev.Name == "ipc" && ev.Args["ipc"] == 0.5 {
				sawIPC = true
			}
			if ev.Ts < 0 {
				t.Fatalf("negative timestamp: %+v", ev)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// 2 points × (ipc + bandwidth + 2 component groups) = 8 counter events.
	if counters != 8 || meta != 1 {
		t.Fatalf("counters=%d meta=%d, want 8/1", counters, meta)
	}
	if !sawIPC {
		t.Fatal("first point's ipc counter missing")
	}
	// ts of the first point: 1000 cycles at 1.25 GHz = 0.8 µs.
	if ts := tf.TraceEvents[1].Ts; ts < 0.79 || ts > 0.81 {
		t.Fatalf("ts = %v µs, want 0.8", ts)
	}
	if err := WriteChromeTrace(&buf, "x", 1, nil); err == nil {
		t.Fatal("nil series must error, not write an empty trace")
	}
}

// TestMeanIPC summarises per-experiment series for /metrics.
func TestMeanIPC(t *testing.T) {
	d := &SeriesDump{Points: []Point{{IPC: 1}, {IPC: 3}}}
	if got := d.MeanIPC(); got != 2 {
		t.Fatalf("MeanIPC = %v, want 2", got)
	}
	if (&SeriesDump{}).MeanIPC() != 0 || (*SeriesDump)(nil).MeanIPC() != 0 {
		t.Fatal("empty/nil series must report 0")
	}
}
