package engine

import (
	"fmt"

	"repro/internal/netlist"
)

// Backend names a fault-simulation backend. Auto defers the choice to a
// per-run heuristic (circuit size, lane occupancy) and is what every
// run above internal/faultsim uses; the other values force one, which
// faultsim.Options.Eval exposes for cross-checks and crossover
// measurements.
type Backend int

// The selectable backends. Compiled is the 64-lane flat-instruction
// machine (sim.CompiledSeq / sim.CompiledComb). Hybrid is a
// fault-simulation strategy rather than a per-batch machine: faults run
// one at a time on a delta simulator against a shared compiled
// baseline, and faults whose per-cycle divergence exceeds the cone
// threshold are demoted to the compiled 64-lane sweep (see
// internal/faultsim). Combinational evaluation is always compiled.
const (
	Auto Backend = iota
	Compiled
	Hybrid
)

var backendNames = [...]string{"auto", "compiled", "hybrid"}

func (b Backend) String() string {
	if int(b) < len(backendNames) {
		return backendNames[b]
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// DefaultConeThreshold is the floor of the hybrid strategy's per-cycle
// gate-evaluation budget: a fault whose static influence cone
// (sim.ConeIndex) fits the budget can never exceed it and stays on the
// delta simulator for good; a larger-cone fault is admitted
// optimistically and demoted to the compiled 64-lane sweep the first
// cycle its divergence out-runs the budget. The value trades wasted
// delta work on demoted faults against fast-path coverage; the
// threshold-sweep ablation in EXPERIMENTS.md is the tuning procedure.
const DefaultConeThreshold = 32

// ConeThresholdFor scales the hybrid budget to the circuit: the
// compiled sweep's per-fault-cycle cost grows with circuit size (a full
// pass over the instruction stream amortized over 63 lanes), so larger
// circuits can afford proportionally more scalar delta evaluations
// before demotion pays. Order/8 tracks the measured optimum on the
// scaled ISCAS'89 suite (the threshold sweep in EXPERIMENTS.md);
// DefaultConeThreshold is the floor. Deterministic per circuit, so
// hybrid results stay byte-identical at any parallelism.
func ConeThresholdFor(c *netlist.Circuit) int {
	thr := len(c.Order) / 8
	if thr < DefaultConeThreshold {
		thr = DefaultConeThreshold
	}
	return thr
}

// ResolveSeq turns Auto into a concrete backend for a fault-simulation
// run on circuit c with the given number of occupied fault lanes per
// batch (0 when unknown). The compiled 64-lane machine is the baseline
// that wins on raw per-gate throughput; full-width passes on large
// sequential circuits beat it with the Hybrid strategy, which runs each
// fault on a per-fault delta simulator against one shared compiled
// baseline — most faults either detect within a few cycles or stay
// quiet, so per-fault work tracks actual divergence instead of circuit
// size, and the few broadly-diverging faults are demoted to the
// compiled sweep (deterministically, so results stay byte-identical).
//
// Small circuits and near-empty batches stay on Compiled: the delta
// path's per-fault bookkeeping only pays off once a full sweep touches
// enough gates.
func (b Backend) ResolveSeq(c *netlist.Circuit, lanes int) Backend {
	if b != Auto {
		return b
	}
	if lanes > 2 && len(c.Order) >= 4096 && len(c.FFs) > 0 {
		return Hybrid
	}
	return Compiled
}
