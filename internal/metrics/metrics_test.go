package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestGaugeRegistrationAndSnapshot: gauges read in registration order, with
// the cycle forwarded to probes that need it, and a name registers once.
func TestGaugeRegistrationAndSnapshot(t *testing.T) {
	r := new(Registry)
	depth := 3
	r.RegisterGauge("l2.read_q", func(uint64) int { return depth })
	r.RegisterGauge("vbox.ports_busy", func(cy uint64) int { return int(cy % 7) })
	got := r.ReadGauges(16)
	want := []GaugeSample{{Name: "l2.read_q", Value: 3}, {Name: "vbox.ports_busy", Value: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadGauges = %+v, want %+v", got, want)
	}
	vals := r.ReadGaugeValues(16, nil)
	if !reflect.DeepEqual(vals, []int{3, 2}) {
		t.Fatalf("ReadGaugeValues = %v", vals)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering l2.read_q twice did not panic")
		}
	}()
	r.RegisterGauge("l2.read_q", func(uint64) int { return 0 })
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
