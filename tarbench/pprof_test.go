package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pbuf is a minimal protobuf encoder for building test profiles.
type pbuf struct{ bytes.Buffer }

func (p *pbuf) varint(v uint64)          { p.Write(binary.AppendUvarint(nil, v)) }
func (p *pbuf) uint(field int, v uint64) { p.varint(uint64(field) << 3); p.varint(v) }
func (p *pbuf) msg(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}
func (p *pbuf) packed(field int, vs ...uint64) {
	var in pbuf
	for _, v := range vs {
		in.varint(v)
	}
	p.msg(field, in.Bytes())
}

// period is fixedProfile's sampling period in ns.
const period = 1_000_000

// fixedProfile is a gzipped CPU profile with five samples whose
// attribution is known: a runtime call charged to its core caller,
// standard-library work under a serve closure, a GC worker with no
// repository frame, an unlisted module (dse) above core, and a vasm frame
// inlined into sim. Each sample's cpu value is its count × period, plus
// skewNs on the first sample.
func fixedProfile(t *testing.T, skewNs uint64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/core.(*Core).Tick",                  // function 1
		"runtime.mallocgc",                                  // function 2
		"repro/internal/serve.(*Server).handleSubmit.func1", // function 3
		"encoding/json.Marshal",                             // function 4
		"runtime.gcBgMarkWorker",                            // function 5
		"repro/internal/dse.Apply",                          // function 6
		"repro/internal/vasm.(*Trace).Next",                 // function 7
		"repro/internal/sim.(*Chip).runTraces",              // function 8
	}
	var p pbuf
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pbuf
		m.uint(1, vt[0])
		m.uint(2, vt[1])
		p.msg(1, m.Bytes())
	}
	samples := []struct {
		locs  []uint64 // leaf first
		count uint64
	}{
		{[]uint64{1, 2}, 10},
		{[]uint64{3, 4}, 20},
		{[]uint64{5}, 5},
		{[]uint64{6, 2}, 3},
		{[]uint64{7}, 7},
	}
	for i, s := range samples {
		var m pbuf
		if i == 0 { // unpacked, as encoders write short lists
			for _, l := range s.locs {
				m.uint(1, l)
			}
			m.uint(2, s.count)
			m.uint(2, s.count*period+skewNs)
		} else {
			m.packed(1, s.locs...)
			m.packed(2, s.count, s.count*period)
		}
		p.msg(2, m.Bytes())
	}
	// Location id → its functions, innermost first.
	locFns := map[uint64][]uint64{1: {2}, 2: {1}, 3: {4}, 4: {3}, 5: {5}, 6: {6}, 7: {7, 8}}
	for id := uint64(1); id <= 7; id++ {
		var m pbuf
		m.uint(1, id)
		for _, f := range locFns[id] {
			var line pbuf
			line.uint(1, f)
			line.uint(2, 10)
			m.msg(4, line.Bytes())
		}
		p.msg(4, m.Bytes())
	}
	for f := uint64(1); f <= 8; f++ {
		var m pbuf
		m.uint(1, f)
		m.uint(2, f+4)
		p.msg(5, m.Bytes())
	}
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	var pt pbuf // period_type cpu/nanoseconds
	pt.uint(1, 3)
	pt.uint(2, 4)
	p.msg(11, pt.Bytes())
	p.uint(12, period)
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestAttributeFixedProfile(t *testing.T) {
	prof, err := parseProfile(fixedProfile(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if prof.totalNs != 45e6 {
		t.Fatalf("total = %d ns, want 45e6", prof.totalNs)
	}
	got, err := attribute(prof)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"core": 0.010, "serve": 0.020, "runtime": 0.005, "other": 0.003, "vasm": 0.007}
	for _, b := range buckets {
		if math.Abs(got[b]-want[b]) > 1e-12 {
			t.Errorf("%s.self_s = %v, want %v", b, got[b], want[b])
		}
	}
}

// A cpu value that is not its sample's count × period, as a misread value
// or sample type would give, makes the buckets miss the profile total.
func TestAttributeRejectsUnbalancedBuckets(t *testing.T) {
	prof, err := parseProfile(fixedProfile(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attribute(prof); err == nil {
		t.Fatal("attribute accepted buckets that do not sum to samples × period")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
