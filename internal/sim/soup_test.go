package sim

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/vasm"
)

// TestRandomKernelSoup generates random (but well-formed) instruction soup —
// scalar and vector arithmetic, strided and random memory, masks, vl/vs
// changes, DrainM, short loops — and runs it on every configuration. The
// assertion is liveness: the chip retires everything and halts without
// tripping the watchdog. This is the broadest deadlock hunter in the suite.
func TestRandomKernelSoup(t *testing.T) {
	const region = 1 << 20 // data region size (bytes), quadword-aligned ops
	soup := func(seed int64) vasm.Kernel {
		return func(b *vasm.Builder) {
			rng := rand.New(rand.NewSource(seed))
			base := isa.R(1)
			b.Li(base, 1<<20)
			b.SetVSImm(isa.R(9), 8)
			// A valid index vector for gathers/scatters.
			for i := 0; i < isa.VLMax; i++ {
				b.M.V[15][i] = uint64(rng.Intn(region/8)) * 8
			}
			strides := []int64{8, 16, 24, 40, 64, 8 * 16, 8 * 96}
			for n := 0; n < 600; n++ {
				switch rng.Intn(12) {
				case 0:
					b.SetVLImm(isa.R(9), 1+rng.Intn(isa.VLMax))
				case 1:
					st := strides[rng.Intn(len(strides))]
					// Keep strided accesses inside the region.
					b.SetVSImm(isa.R(9), st)
					b.Li(base, 1<<20+int64(rng.Intn(1024))*8)
					b.VLdQ(isa.V(rng.Intn(8)), base, 0)
					b.SetVSImm(isa.R(9), 8)
				case 2:
					b.VStQ(isa.V(rng.Intn(8)), base, int64(rng.Intn(128))*8)
				case 3:
					b.VGath(isa.V(rng.Intn(8)), isa.V(15), base)
				case 4:
					b.VScat(isa.V(rng.Intn(8)), isa.V(15), base)
				case 5:
					b.VV(isa.OpVADDT, isa.V(rng.Intn(8)), isa.V(rng.Intn(8)), isa.V(rng.Intn(8)))
				case 6:
					b.VS(isa.OpVSMULT, isa.V(rng.Intn(8)), isa.V(rng.Intn(8)), isa.F(1))
				case 7:
					b.VV(isa.OpVCMPLT, isa.V(9), isa.V(rng.Intn(8)), isa.V(rng.Intn(8)))
					b.SetVM(isa.V(9))
					b.VVM(isa.OpVADDQ, isa.V(rng.Intn(8)), isa.V(rng.Intn(8)), isa.V(rng.Intn(8)))
					b.ClrVM()
				case 8:
					b.LdQ(isa.R(10), base, int64(rng.Intn(512))*8)
					b.OpImm(isa.OpADDQ, isa.R(10), isa.R(10), 1)
					b.StQ(isa.R(10), base, int64(rng.Intn(512))*8)
				case 9:
					b.DrainM()
				case 10:
					b.Loop(isa.R(16), 1+rng.Intn(4), func(int) {
						b.VV(isa.OpVMULT, isa.V(10), isa.V(11), isa.V(12))
					})
				case 11:
					b.WH64(base, int64(rng.Intn(512))*64)
				}
			}
			b.Halt()
		}
	}

	configs := []*Config{T(), NoPump(T()), T10(), EV8()}
	for _, cfg := range configs {
		seed := int64(7)
		k := soup(seed)
		if !cfg.HasVbox {
			// Scalar-only machines get a scalar-only soup.
			k = func(b *vasm.Builder) {
				rng := rand.New(rand.NewSource(seed))
				b.Li(isa.R(1), 1<<20)
				for n := 0; n < 2000; n++ {
					switch rng.Intn(4) {
					case 0:
						b.LdQ(isa.R(10), isa.R(1), int64(rng.Intn(2048))*8)
					case 1:
						b.StQ(isa.R(10), isa.R(1), int64(rng.Intn(2048))*8)
					case 2:
						b.Op3(isa.OpADDT, isa.F(2), isa.F(2), isa.F(3))
					case 3:
						b.Loop(isa.R(16), 1+rng.Intn(3), func(int) {
							b.OpImm(isa.OpADDQ, isa.R(11), isa.R(11), 1)
						})
					}
				}
				b.Halt()
			}
		}
		st := runK(t, cfg, k) // a livelock trips the watchdog and fails the test
		if st.Cycles == 0 {
			t.Fatalf("%s: no cycles", cfg.Name)
		}
		if st.ScalarIns+st.VectorIns == 0 {
			t.Fatalf("%s: nothing retired", cfg.Name)
		}
	}
}
