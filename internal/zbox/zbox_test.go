package zbox

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

func testCfg() Config {
	return Config{
		Ports:          8,
		LineCycles:     16,
		BaseLatency:    100,
		RowBytes:       2048,
		DevicesPerPort: 32,
		RowMissCycles:  12,
		TurnCycles:     5,
	}
}

// newTestZbox builds a controller that counts into a fresh Stats block.
func newTestZbox(cfg Config) (*Zbox, *stats.Stats) {
	st := new(stats.Stats)
	return New(cfg, st, new(metrics.Registry)), st
}

// drive advances the controller until quiescent, returning the final cycle.
func drive(z *Zbox, from uint64, max uint64) uint64 {
	cy := from
	for z.Busy() && cy < from+max {
		cy++
		z.Tick(cy)
	}
	return cy
}

func TestSingleReadLatency(t *testing.T) {
	z, st := newTestZbox(testCfg())
	var done uint64
	z.Request(0x1000, Read, func(cy uint64) { done = cy })
	end := drive(z, 0, 10_000)
	if done == 0 {
		t.Fatalf("read never completed (end cycle %d)", end)
	}
	// occupancy 16 + row miss 12 + base latency 100, started at cycle 1.
	want := uint64(1 + 16 + 12 + 100)
	if done != want {
		t.Fatalf("read done at %d, want %d", done, want)
	}
	if st.MemReads != 1 || st.RowActivates != 1 {
		t.Fatalf("counters: reads=%d activates=%d", st.MemReads, st.RowActivates)
	}
}

func TestRowHitVsMiss(t *testing.T) {
	z, st := newTestZbox(testCfg())
	// Reads on different ports each open their own row.
	z.Request(0x0, Read, nil)  // port 0
	z.Request(0x40, Read, nil) // port 1
	drive(z, 0, 10_000)
	if st.RowActivates != 2 {
		t.Fatalf("expected 2 activates on distinct ports, got %d", st.RowActivates)
	}
	// Same port, same row: second should hit the open row.
	z2, st2 := newTestZbox(testCfg())
	z2.Request(0x0, Read, nil)
	z2.Request(0x0+8*64, Read, nil) // +512B: port = same (addr>>6 mod 8), row same
	drive(z2, 0, 10_000)
	if st2.RowActivates != 1 || st2.RowHits != 1 {
		t.Fatalf("activates=%d hits=%d, want 1/1", st2.RowActivates, st2.RowHits)
	}
}

func TestReadWriteTurnaround(t *testing.T) {
	z, st := newTestZbox(testCfg())
	z.Request(0x0, Read, nil)
	z.Request(0x0+512, Write, nil)
	z.Request(0x0+1024, Read, nil)
	drive(z, 0, 10_000)
	if st.Turnarounds != 2 {
		t.Fatalf("turnarounds = %d, want 2 (read→write→read)", st.Turnarounds)
	}
}

func TestPortParallelism(t *testing.T) {
	// N lines spread over all 8 ports should take ~1/8 the time of N lines
	// on one port.
	cfg := testCfg()
	timeFor := func(stride uint64) uint64 {
		z, _ := newTestZbox(cfg)
		var last uint64
		for i := uint64(0); i < 64; i++ {
			z.Request(i*stride, Read, func(cy uint64) { last = cy })
		}
		drive(z, 0, 100_000)
		return last
	}
	spread := timeFor(64)     // consecutive lines: round-robin over ports
	single := timeFor(8 * 64) // every 8th line: same port every time
	if single < 4*spread {
		t.Fatalf("port parallelism missing: single-port %d vs spread %d", single, spread)
	}
}

func TestDirOpCountsInRawTraffic(t *testing.T) {
	z, st := newTestZbox(testCfg())
	z.Request(0x40, DirOp, nil)
	drive(z, 0, 10_000)
	if st.MemDirOps != 1 {
		t.Fatalf("dir ops = %d", st.MemDirOps)
	}
	if st.RawMemBytes() != 64 {
		t.Fatalf("raw bytes = %d, want 64", st.RawMemBytes())
	}
}

func TestBandwidthUnderLoad(t *testing.T) {
	// Saturate all ports with a sequential stream: sustained throughput
	// should approach one line per LineCycles per port.
	cfg := testCfg()
	z, _ := newTestZbox(cfg)
	const n = 800
	for i := uint64(0); i < n; i++ {
		z.Request(i*64, Read, nil)
	}
	end := drive(z, 0, 1_000_000)
	perPort := n / uint64(cfg.Ports)
	ideal := perPort * uint64(cfg.LineCycles)
	if end > ideal*3/2 {
		t.Fatalf("sequential stream took %d cycles, ideal ~%d", end, ideal)
	}
}

func TestRandomStreamActivatesMoreRows(t *testing.T) {
	cfg := testCfg()
	z, seq := newTestZbox(cfg)
	for i := uint64(0); i < 256; i++ {
		z.Request(i*64, Read, nil)
	}
	drive(z, 0, 1_000_000)

	z2, rnd := newTestZbox(cfg)
	for i := uint64(0); i < 256; i++ {
		// Large-stride pseudo-random addresses thrash the open rows —
		// the RndMemScale effect ("2.5X more row activates", §6).
		z2.Request((i*2654435761)%(1<<26)&^63, Read, nil)
	}
	drive(z2, 0, 1_000_000)

	if rnd.RowActivates < 2*seq.RowActivates {
		t.Fatalf("random activates %d not >> sequential %d", rnd.RowActivates, seq.RowActivates)
	}
}

func TestCompletionOrderWithinPort(t *testing.T) {
	z, _ := newTestZbox(testCfg())
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		z.Request(uint64(i)*512*8, Read, func(uint64) { order = append(order, i) })
	}
	drive(z, 0, 100_000)
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("same-port requests completed out of order: %v", order)
		}
	}
}
