package arch

import (
	"fmt"

	"repro/internal/isa"
)

// Program is a fully resolved static instruction sequence. Branch immediates
// are absolute instruction indices. It exists so the functional ISA can be
// exercised as a real machine (fetch/step/branch), independent of the
// trace-builder path the workloads use.
type Program []isa.Inst

// Run executes p from instruction 0 until a HALT or until maxSteps
// instructions have retired, returning the number executed. It is the
// functional-machine analogue of a free-running core.
func (m *Machine) Run(p Program, maxSteps int) (int, error) {
	pc := 0
	var eff Effect
	for n := 0; n < maxSteps; n++ {
		if pc < 0 || pc >= len(p) {
			return n, fmt.Errorf("arch: pc %d out of range (len %d)", pc, len(p))
		}
		in := &p[pc]
		if in.Op == isa.OpHALT {
			return n + 1, nil
		}
		m.Step(in, &eff)
		if in.Info().IsBranch && eff.Taken {
			pc = int(in.Imm)
		} else {
			pc++
		}
	}
	return maxSteps, fmt.Errorf("arch: exceeded %d steps without HALT", maxSteps)
}
