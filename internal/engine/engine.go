// Package engine is the shared artifact layer under the three-step
// flow: a per-circuit cache of everything the phases derive from a
// netlist — the compiled sim.Program (which embodies the levelization
// order), the collapsed fault list, the scan-mode combinational ATPG
// model and its SCOAP search tables — plus the Backend selection
// (compiled or hybrid) for fault simulation.
//
// Before this layer existed every phase rebuilt its own derived
// structures: screening, each of the many fault-simulation calls inside
// step 2 and step 3, the step-2 dropper and the diagnosis dictionary
// all compiled the same circuit again, and step 2 and the step-3 final
// pass each recomputed the same combinational model and SCOAP tables.
// The cache makes each derivation happen once per distinct circuit
// structure: entries are keyed by netlist.(*Circuit).StructuralHash, so
// mutation (TPI insertion, C/O model construction) changes the key and
// can never be served stale artifacts, and each artifact materializes
// lazily under its own sync.Once, so concurrent workers share one
// compilation instead of racing to duplicate it.
package engine

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Artifacts is the set of lazily materialized derived structures for
// one circuit. Each artifact is built at most once per Artifacts value
// (sync.Once per artifact) and is immutable afterwards, so any number
// of goroutines can share the value.
type Artifacts struct {
	c    *netlist.Circuit
	hash uint64

	// size accumulates the estimated resident footprint: the circuit
	// itself plus every artifact materialized so far. Byte-budgeted
	// caches resync their accounting from it at probe boundaries.
	size atomic.Int64

	progOnce sync.Once
	prog     *sim.Program

	faultsOnce sync.Once
	faults     []fault.Fault

	conesOnce sync.Once
	cones     *sim.ConeIndex

	combOnce sync.Once
	comb     *atpg.CombModel
	combErr  error

	searchMu sync.Mutex
	searches map[uint64]*combSearch
}

// combSearch memoizes the ATPG model + SCOAP tables for one fixed
// input assignment over the circuit's combinational model.
type combSearch struct {
	once   sync.Once
	model  *atpg.Model
	tables *atpg.Tables
	err    error
}

func newArtifacts(c *netlist.Circuit) *Artifacts {
	a := &Artifacts{c: c, hash: c.StructuralHash(), searches: make(map[uint64]*combSearch)}
	a.size.Store(int64(unsafe.Sizeof(*a)) + c.SizeBytes())
	return a
}

// Circuit returns the circuit these artifacts derive from.
func (a *Artifacts) Circuit() *netlist.Circuit { return a.c }

// Hash returns the structural hash the artifacts are keyed by.
func (a *Artifacts) Hash() uint64 { return a.hash }

// SizeBytes returns the current estimated resident footprint of the
// artifact set: the backing circuit plus everything materialized so
// far. It grows monotonically as artifacts lazily materialize.
func (a *Artifacts) SizeBytes() int64 { return a.size.Load() }

// Program returns the compiled instruction stream (which carries the
// levelization order), compiling on first use. When a collector is
// supplied on the materializing call the compile is accounted under the
// sim.compile.* counters — with the cache active that is exactly once
// per distinct circuit structure.
func (a *Artifacts) Program(col *obs.Collector) *sim.Program {
	a.progOnce.Do(func() {
		a.prog = sim.CompileObs(a.c, col)
		a.size.Add(a.prog.SizeBytes())
	})
	return a.prog
}

// CollapsedFaults returns the equivalence-collapsed stuck-at fault list
// of the circuit, computed on first use. Callers must not mutate the
// returned slice.
func (a *Artifacts) CollapsedFaults() []fault.Fault {
	a.faultsOnce.Do(func() {
		a.faults = fault.Collapsed(a.c)
		a.size.Add(int64(cap(a.faults)) * int64(unsafe.Sizeof(fault.Fault{})))
	})
	return a.faults
}

// Cones returns the static influence-cone index of the circuit
// (fanout closure per signal, capped at sim.DefaultConeCap), built on
// first use. The hybrid fault-simulation strategy reads it to decide
// which faults are guaranteed residents of the delta fast path; like
// every artifact it is keyed by the structural hash, so circuit
// mutation can never serve stale cones. The materializing call is
// counted under engine.cones.builds when a collector is supplied.
func (a *Artifacts) Cones(col *obs.Collector) *sim.ConeIndex {
	a.conesOnce.Do(func() {
		if col.Enabled() {
			col.Counter("engine.cones.builds").Inc()
		}
		a.cones = sim.NewConeIndex(a.c, 0)
		a.size.Add(a.cones.SizeBytes())
	})
	return a.cones
}

// CombModel returns the scan-mode combinational ATPG model (flip-flop
// outputs as pseudo-inputs, D pins as pseudo-outputs), built on first
// use. The model's circuit is itself cacheable: derived structures for
// it (its compiled program, used by the step-2 dropper) live under its
// own cache entry.
func (a *Artifacts) CombModel() (*atpg.CombModel, error) {
	a.combOnce.Do(func() {
		a.comb, a.combErr = atpg.BuildCombModel(a.c)
		if a.combErr == nil {
			// The model circuit plus its D-pin observation-buffer map
			// (~48 bytes of bucket share per entry).
			a.size.Add(a.comb.C.SizeBytes() + int64(len(a.comb.DBuf))*48)
		}
	})
	return a.comb, a.combErr
}

// CombSearch returns the ATPG model and SCOAP search tables for the
// circuit's combinational model under the given fixed input assignment,
// memoized per distinct assignment. Step 2 and the step-3 final pass
// run against the same scan-mode model with the same pinned inputs;
// through this accessor they share one controllability/observability
// computation, each wrapping it in its own (cheap) atpg.Engine.
func (a *Artifacts) CombSearch(fixed map[netlist.SignalID]logic.V) (*atpg.Model, *atpg.Tables, error) {
	cm, err := a.CombModel()
	if err != nil {
		return nil, nil, err
	}
	key := fixedHash(fixed)
	a.searchMu.Lock()
	s, ok := a.searches[key]
	if !ok {
		s = &combSearch{}
		a.searches[key] = s
	}
	a.searchMu.Unlock()
	s.once.Do(func() {
		s.model, s.err = atpg.NewModel(cm.C, fixed)
		if s.err == nil {
			s.tables = atpg.NewTables(s.model)
			// Tables dominate; the model is the shared comb circuit
			// plus the fixed map (~56 bytes of bucket share per entry).
			a.size.Add(s.tables.SizeBytes() + int64(len(fixed))*56)
		}
	})
	return s.model, s.tables, s.err
}

// fixedHash digests a fixed-assignment map order-independently: XOR of
// per-entry FNV mixes, so map iteration order cannot perturb the key.
func fixedHash(fixed map[netlist.SignalID]logic.V) uint64 {
	const prime64 = 1099511628211
	h := uint64(len(fixed)) * prime64
	for k, v := range fixed {
		e := (uint64(uint32(k))<<8 | uint64(v) + 1) * prime64
		e ^= e >> 29
		e *= prime64
		h ^= e
	}
	return h
}
