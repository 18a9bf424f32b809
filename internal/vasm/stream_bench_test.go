package vasm

import (
	"testing"

	"repro/internal/isa"
)

// benchKernel mixes vector memory, vector arithmetic and scalar memory — the
// instruction classes whose Effects used to allocate in the trace hot path.
func benchKernel(b *Builder) {
	base := b.AllocF64(1<<14, 0)
	b.Li(isa.R(1), int64(base))
	b.SetVLImm(isa.R(9), isa.VLMax)
	b.SetVSImm(isa.R(10), 8)
	b.Loop(isa.R(2), 512, func(iter int) {
		b.VLdQ(isa.V(1), isa.R(1), 0)
		b.VV(isa.OpVADDT, isa.V(2), isa.V(1), isa.V(1))
		b.VStQ(isa.V(2), isa.R(1), 0)
		b.LdT(isa.F(1), isa.R(1), 0)
		b.Op3(isa.OpADDT, isa.F(2), isa.F(1), isa.F(1))
		b.StT(isa.F(2), isa.R(1), 8)
	})
	b.Halt()
}

// BenchmarkTraceStream measures trace generation with no timing model
// attached: each of the ~4100 instructions an iteration streams is
// executed by the functional machine straight into its batch slot, crosses
// the channel in the 64-to-1024-record batch schedule and is consumed. Most
// of the time is arch's per-instruction vector execution; most of the
// bytes are the fresh machine's memory frames. The allocs/op column is the
// guard: the shared batch free list and the arch address arenas keep it to
// a few dozen.
func BenchmarkTraceStream(b *testing.B) {
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		tr := NewTrace(newM(), benchKernel)
		for tr.Next() != nil {
		}
		insts = tr.Consumed()
		tr.Close()
	}
	b.ReportMetric(float64(insts), "insts")
}
