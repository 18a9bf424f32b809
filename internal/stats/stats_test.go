package stats

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestOPCBreakdown(t *testing.T) {
	s := &Stats{Cycles: 100, Flops: 500, MemOps: 300, OtherOps: 200}
	opc, fpc, mpc, other := s.OPC()
	if fpc != 5 || mpc != 3 || other != 2 || opc != 10 {
		t.Fatalf("OPC = %v %v %v %v", opc, fpc, mpc, other)
	}
}

func TestOPCZeroCycles(t *testing.T) {
	s := &Stats{}
	opc, _, _, _ := s.OPC()
	if opc != 0 {
		t.Fatal("zero-cycle OPC must be 0, not NaN")
	}
}

func TestBandwidth(t *testing.T) {
	// 2.13 GHz, 2130 cycles = 1 µs; 100 MB in 1 µs = 100 TB/s = 1e8 MB/s.
	s := &Stats{Cycles: 2130, UsefulBytes: 100 << 20}
	got := s.BandwidthMBs(2.13)
	want := float64(100<<20) / 1e-6 / 1e6
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("bandwidth %g, want %g", got, want)
	}
}

func TestRawMemBytes(t *testing.T) {
	s := &Stats{MemReads: 2, MemWrites: 3, MemDirOps: 5}
	if s.RawMemBytes() != 10*64 {
		t.Fatalf("raw = %d", s.RawMemBytes())
	}
}

func TestVectorPct(t *testing.T) {
	s := &Stats{VecOps: 990, ScalarIns: 10}
	if got := s.VectorPct(); got != 99.0 {
		t.Fatalf("vect%% = %v", got)
	}
	if (&Stats{}).VectorPct() != 0 {
		t.Fatal("empty stats must report 0%")
	}
}

func TestSub(t *testing.T) {
	a := &Stats{Cycles: 100, Flops: 50, MAFPeak: 7}
	b := &Stats{Cycles: 30, Flops: 20, MAFPeak: 5}
	d := Sub(a, b)
	if d.Cycles != 70 || d.Flops != 30 {
		t.Fatalf("Sub = %+v", d)
	}
	if d.MAFPeak != 7 {
		t.Fatalf("MAFPeak should keep the later value, got %d", d.MAFPeak)
	}
}

func TestSubProperty(t *testing.T) {
	// (a+b) - a == b for the counter fields.
	f := func(c1, c2, f1, f2 uint32) bool {
		a := &Stats{Cycles: uint64(c1), Flops: uint64(f1)}
		sum := &Stats{Cycles: uint64(c1) + uint64(c2), Flops: uint64(f1) + uint64(f2)}
		d := Sub(sum, a)
		return d.Cycles == uint64(c2) && d.Flops == uint64(f2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGMean(t *testing.T) {
	if g := GMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("gmean(2,8) = %v", g)
	}
	if g := GMean([]float64{5, 0, -1}); math.Abs(g-5) > 1e-12 {
		t.Fatalf("non-positive entries must be ignored: %v", g)
	}
	if GMean(nil) != 0 {
		t.Fatal("empty gmean must be 0")
	}
}

func TestTableListsEveryCounterGroup(t *testing.T) {
	s := &Stats{Cycles: 1}
	out := s.Table()
	for _, want := range []string{"cycles", "L2 vector slices", "CR rounds", "mem dir ops", "TLB misses"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

// TestTableListsEveryCounter: tarsim -v prints every counter, so each
// field, set to a value no other field holds, must appear as a row's value.
func TestTableListsEveryCounter(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	s := &Stats{}
	sv := reflect.ValueOf(s).Elem()
	for i := 0; i < typ.NumField(); i++ {
		sv.Field(i).SetUint(1000 + uint64(i))
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(s.Table()), "\n") {
		f := strings.Fields(line)
		rows[f[len(f)-1]] = true
	}
	for i := 0; i < typ.NumField(); i++ {
		if v := strconv.Itoa(1000 + i); !rows[v] {
			t.Errorf("table has no row for %s (value %s)", typ.Field(i).Name, v)
		}
	}
}

// TestSubCoversEveryCounterField walks the struct with reflection so a
// counter added to Stats can never silently escape ROI accounting: every
// field must be uint64 (Sub skips other kinds, and SaveState reads each
// field as one), and Sub must subtract each one — except MAFPeak, which
// keeps the later value by design.
func TestSubCoversEveryCounterField(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	s, base := &Stats{}, &Stats{}
	sv := reflect.ValueOf(s).Elem()
	bv := reflect.ValueOf(base).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Fatalf("field %s is %s, not uint64: Sub skips it and SaveState cannot encode it — extend them before adding non-counter state", f.Name, f.Type)
		}
		sv.Field(i).SetUint(1000 + uint64(i))
		bv.Field(i).SetUint(uint64(i))
	}
	d := Sub(s, base)
	dv := reflect.ValueOf(d).Elem()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		want := uint64(1000)
		if name == "MAFPeak" {
			want = 1000 + uint64(i) // peak keeps the later value
		}
		if got := dv.Field(i).Uint(); got != want {
			t.Errorf("Sub dropped field %s: got %d, want %d", name, got, want)
		}
	}
}
