package sim

// Observability hooks for the simulation layer. The evaluators stay
// obs-free on their hot paths; what the metrics layer wants from sim is
// compile activity (how many programs, how big, how long) — per-cycle
// and per-batch event counting lives in the callers, which already own
// the loops and can count at batch granularity for free.

import (
	"time"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// NumInstr returns the number of compiled gate-evaluation instructions
// (one per gate, in topological order).
func (p *Program) NumInstr() int { return len(p.code) }

// CompileObs is Compile plus metrics: when col is enabled it records
// the compile count, cumulative compile wall time and cumulative
// instruction count under the sim.compile.* counters. With a nil
// collector it is exactly Compile.
func CompileObs(c *netlist.Circuit, col *obs.Collector) *Program {
	if !col.Enabled() {
		return Compile(c)
	}
	t0 := time.Now()
	p := Compile(c)
	col.Counter("sim.compile.count").Inc()
	col.Counter("sim.compile.ns").Add(time.Since(t0).Nanoseconds())
	col.Counter("sim.compile.instrs").Add(int64(p.NumInstr()))
	return p
}
