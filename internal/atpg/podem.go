// Package atpg implements PODEM, a complete combinational automatic
// test-pattern generator, over a dual-machine (fault-free / faulty)
// three-valued simulation with event-driven implication.
//
// The engine runs on a purely combinational circuit (no flip-flops);
// sequential circuits are first mapped with CombModel (flip-flop outputs
// become assignable pseudo-inputs, flip-flop D pins become observable
// pseudo-outputs) or unrolled by the seqatpg package. Inputs whose value
// is pinned by test point insertion are supplied as fixed assignments and
// never used as decision variables.
//
// Each PODEM decision costs work in proportion to the signals it
// changes, not to the model or the fault cone:
//
//   - injection sites are dense per-signal marks (a stem site with its
//     stuck value, or a gate consuming a branch injection), set when a
//     fault is loaded and cleared for the next one, so implication
//     tests one byte per gate rather than probing a map;
//   - outside the fault cone the faulty machine equals the good one by
//     construction (no faulty fanin, no injection site), so those gates
//     are evaluated once, reading fanin values in place, and the result
//     is copied to the faulty machine;
//   - the set of signals carrying a fault effect (D) is kept up to date
//     as values change, and the D-frontier is built from that set's
//     fanouts plus the branch-injection gates, sorted into topological
//     order.
//
// The frontier is exactly the one a full scan of the cone in topological
// order would produce, contents and order, so the search itself (every
// decision, backtrack count and assignment) does not depend on how the
// implication is computed.
package atpg

import (
	"context"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Status is the outcome of a PODEM run for one fault.
type Status int

// PODEM outcomes.
const (
	// Found: a test vector was generated.
	Found Status = iota
	// Redundant: the search space was exhausted, proving the fault
	// untestable in this combinational model (and therefore, for the
	// scan-mode model, sequentially undetectable — see the paper §4).
	Redundant
	// Aborted: the backtrack limit was reached before a decision.
	Aborted
)

func (s Status) String() string {
	switch s {
	case Found:
		return "found"
	case Redundant:
		return "redundant"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Result of generating a test for one fault.
type Result struct {
	Status     Status
	Assignment map[netlist.SignalID]logic.V // assigned free inputs (others X)
	Backtracks int
}

// Model is the combinational ATPG view: the circuit must contain no
// flip-flops; Fixed pins inputs to constant values (TPI assignments and
// scan_mode=1), all remaining inputs are decision variables.
type Model struct {
	C     *netlist.Circuit
	Fixed map[netlist.SignalID]logic.V
}

// NewModel validates that c is combinational and builds a model.
func NewModel(c *netlist.Circuit, fixed map[netlist.SignalID]logic.V) (*Model, error) {
	if len(c.FFs) != 0 {
		return nil, fmt.Errorf("atpg: model circuit %q contains flip-flops", c.Name)
	}
	if !c.Finalized() {
		return nil, fmt.Errorf("atpg: model circuit %q not finalized", c.Name)
	}
	return &Model{C: c, Fixed: fixed}, nil
}

// FreeInputs returns the decision inputs (inputs not fixed), in input
// order.
func (m *Model) FreeInputs() []netlist.SignalID {
	var free []netlist.SignalID
	for _, in := range m.C.Inputs {
		if _, ok := m.Fixed[in]; !ok {
			free = append(free, in)
		}
	}
	return free
}

// Engine is a reusable PODEM engine for one model. Not safe for
// concurrent use.
type Engine struct {
	m    *Model
	c    *netlist.Circuit
	good []logic.V
	flty []logic.V

	// Injection sites: a plain fault has one; a time-frame-expanded
	// fault has one per frame (the same physical defect replicated).
	// site marks each signal that is a stem site or consumes a branch
	// injection, and stuck holds a stem site's stuck value, so the
	// implication loop tests one byte per gate instead of probing a map.
	injs  []sim.Inject
	site  []uint8
	stuck []logic.V

	obsDist  []int32
	buckets  [][]netlist.SignalID
	inQueue  []bool
	maxLevel int
	consts   []netlist.SignalID // zero-fanin gates, seeded by reset
	pos      []int32            // position of each gate in c.Order

	// Fault cone: only signals downstream of an injection site can carry
	// a fault effect. Outside it the faulty machine equals the good one,
	// so drain evaluates those gates once. cone lists the members so the
	// marks are cleared in proportion to the cone, not the model.
	cone   []netlist.SignalID
	inCone []bool
	isOut  []bool // observation points in the cone, indexed by signal

	// D-set: the signals currently carrying a fault effect, kept up to
	// date as values change (dPos is each member's index, -1 outside the
	// set; outD counts members that are observation points). The
	// D-frontier is derived from the set's fanouts, never from a scan of
	// the cone.
	dset []netlist.SignalID
	dPos []int32
	outD int

	// SCOAP controllability per signal (computed once per model).
	cc0, cc1 []int64

	// Epoch-tagged scratch for xPathExists and the D-frontier's
	// de-duplication.
	seenEpoch []uint32
	epoch     uint32

	// Reused traversal scratch: the D-frontier of the current iteration
	// and the xPathExists DFS stack. Kept on the engine so the search
	// loop never allocates per iteration.
	frontier []netlist.SignalID
	xstack   []netlist.SignalID

	// decision stack
	stack []decision

	// Observability sinks (nil-safe no-ops until Instrument is called).
	// They are touched once per GenerateMultiCtx call, never inside the
	// search loop, so an uninstrumented engine pays only nil-receiver
	// checks.
	obs engineObs
}

// engineObs holds the per-engine metric sinks. The zero value (all nil)
// is the disabled state.
type engineObs struct {
	generated  *obs.Counter
	found      *obs.Counter
	redundant  *obs.Counter
	aborted    *obs.Counter
	backtracks *obs.Counter
	hist       *obs.Histogram
}

// Instrument attaches the engine to a collector: every GenerateCtx /
// GenerateMultiCtx call then records its outcome under prefix.* —
// generated, found, redundant and aborted call counts, a cumulative
// backtracks counter, and a backtracks histogram. A nil collector
// leaves the engine uninstrumented.
func (e *Engine) Instrument(col *obs.Collector, prefix string) {
	if !col.Enabled() {
		return
	}
	e.obs = engineObs{
		generated:  col.Counter(prefix + ".generated"),
		found:      col.Counter(prefix + ".found"),
		redundant:  col.Counter(prefix + ".redundant"),
		aborted:    col.Counter(prefix + ".aborted"),
		backtracks: col.Counter(prefix + ".backtracks"),
		hist:       col.Histogram(prefix + ".backtracks"),
	}
}

// record notes one completed generation attempt.
func (eo *engineObs) record(res *Result) {
	eo.generated.Inc()
	eo.backtracks.Add(int64(res.Backtracks))
	eo.hist.Observe(int64(res.Backtracks))
	switch res.Status {
	case Found:
		eo.found.Inc()
	case Redundant:
		eo.redundant.Inc()
	case Aborted:
		eo.aborted.Inc()
	}
}

type decision struct {
	pi        netlist.SignalID
	value     logic.V
	triedBoth bool
}

// Tables bundles the search-guidance structures PODEM derives once per
// (circuit, fixed-assignment) model: SCOAP 0/1 controllability per
// signal and the minimum gate-hop distance to an observation point.
// They are immutable after construction, depend only on the model (not
// on any fault), and are safe to share across engines and goroutines —
// the engine-layer artifact cache memoizes one Tables per model so
// step-2 and step-3 engines on the same scan-mode model stop recomputing
// them.
type Tables struct {
	CC0, CC1 []int64
	ObsDist  []int32
}

// SizeBytes estimates the tables' resident footprint for byte-budgeted
// caches (the engine layer memoizes one Tables per distinct fixed
// assignment).
func (t *Tables) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*t)) +
		int64(cap(t.CC0)+cap(t.CC1))*8 +
		int64(cap(t.ObsDist))*4
}

// NewTables computes the SCOAP controllability and observation-distance
// tables for m.
func NewTables(m *Model) *Tables {
	t := &Tables{ObsDist: observationDistance(m.C)}
	t.CC0, t.CC1 = controllability(m)
	return t
}

// NewEngine builds an engine for m, computing fresh search tables.
func NewEngine(m *Model) *Engine {
	return NewEngineTables(m, NewTables(m))
}

// NewEngineTables builds an engine for m reusing precomputed search
// tables (which must have been built with NewTables on the same model).
// The engine only reads the tables, so any number of engines can share
// one Tables value.
func NewEngineTables(m *Model, t *Tables) *Engine {
	c := m.C
	e := &Engine{
		m:       m,
		c:       c,
		good:    make([]logic.V, len(c.Signals)),
		flty:    make([]logic.V, len(c.Signals)),
		inQueue: make([]bool, len(c.Signals)),
		site:    make([]uint8, len(c.Signals)),
		stuck:   make([]logic.V, len(c.Signals)),
		pos:     make([]int32, len(c.Signals)),
		inCone:  make([]bool, len(c.Signals)),
		isOut:   make([]bool, len(c.Signals)),
		dPos:    make([]int32, len(c.Signals)),

		seenEpoch: make([]uint32, len(c.Signals)),
	}
	for _, l := range c.Level {
		if l > e.maxLevel {
			e.maxLevel = l
		}
	}
	for i, g := range c.Order {
		e.pos[g] = int32(i)
		if len(c.Signals[g].Fanin) == 0 {
			e.consts = append(e.consts, g)
		}
	}
	for i := range e.dPos {
		e.dPos[i] = -1
	}
	e.buckets = make([][]netlist.SignalID, e.maxLevel+1)
	e.obsDist = t.ObsDist
	e.cc0, e.cc1 = t.CC0, t.CC1
	return e
}

// ccInf is the saturation value for uncontrollable signals.
const ccInf = int64(1) << 40

// controllability computes SCOAP-style combinational 0/1
// controllability per signal, honouring fixed inputs (a pinned input is
// free to its pinned value and uncontrollable to the other; an input
// pinned to X is uncontrollable entirely). Backtrace uses these to pick
// cheap inputs when one controlling value suffices and hard inputs when
// every input must be justified.
func controllability(m *Model) (cc0, cc1 []int64) {
	c := m.C
	cc0 = make([]int64, len(c.Signals))
	cc1 = make([]int64, len(c.Signals))
	sat := func(a, b int64) int64 {
		s := a + b
		if s > ccInf {
			return ccInf
		}
		return s
	}
	for _, in := range c.Inputs {
		switch v, fixed := m.Fixed[in]; {
		case !fixed:
			cc0[in], cc1[in] = 1, 1
		case v == logic.Zero:
			cc0[in], cc1[in] = 0, ccInf
		case v == logic.One:
			cc0[in], cc1[in] = ccInf, 0
		default: // pinned X: uncontrollable
			cc0[in], cc1[in] = ccInf, ccInf
		}
	}
	for _, g := range c.Order {
		s := &c.Signals[g]
		switch s.Op {
		case logic.OpBuf:
			cc0[g], cc1[g] = sat(cc0[s.Fanin[0]], 1), sat(cc1[s.Fanin[0]], 1)
		case logic.OpNot:
			cc0[g], cc1[g] = sat(cc1[s.Fanin[0]], 1), sat(cc0[s.Fanin[0]], 1)
		case logic.OpConst0:
			cc0[g], cc1[g] = 0, ccInf
		case logic.OpConst1:
			cc0[g], cc1[g] = ccInf, 0
		case logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor:
			ctrl, _ := s.Op.Controlling()
			// Cost of the controlled output: cheapest controlling input.
			// Cost of the other value: all inputs non-controlling.
			ctrlCost, allCost := ccInf, int64(0)
			for _, f := range s.Fanin {
				cCtrl, cNon := cc0[f], cc1[f]
				if ctrl == logic.One {
					cCtrl, cNon = cc1[f], cc0[f]
				}
				if cCtrl < ctrlCost {
					ctrlCost = cCtrl
				}
				allCost = sat(allCost, cNon)
			}
			ctrlCost = sat(ctrlCost, 1)
			allCost = sat(allCost, 1)
			controlledOut := ctrl
			if s.Op.Inverting() {
				controlledOut = ctrl.Not()
			}
			if controlledOut == logic.Zero {
				cc0[g], cc1[g] = ctrlCost, allCost
			} else {
				cc1[g], cc0[g] = ctrlCost, allCost
			}
		case logic.OpXor, logic.OpXnor:
			// Fold pairwise.
			a0, a1 := int64(0), ccInf // accumulator starts at constant 0
			for i, f := range s.Fanin {
				b0, b1 := cc0[f], cc1[f]
				if i == 0 {
					a0, a1 = b0, b1
					continue
				}
				n0 := min64(sat(a0, b0), sat(a1, b1))
				n1 := min64(sat(a0, b1), sat(a1, b0))
				a0, a1 = n0, n1
			}
			if s.Op == logic.OpXnor {
				a0, a1 = a1, a0
			}
			cc0[g], cc1[g] = sat(a0, 1), sat(a1, 1)
		}
	}
	return cc0, cc1
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// cc returns the controllability cost of setting signal s to v.
func (e *Engine) cc(s netlist.SignalID, v logic.V) int64 {
	if v == logic.Zero {
		return e.cc0[s]
	}
	return e.cc1[s]
}

// observationDistance computes, per signal, the minimum number of gate
// hops to any primary output (used to rank D-frontier gates).
func observationDistance(c *netlist.Circuit) []int32 {
	const inf = int32(1) << 30
	dist := make([]int32, len(c.Signals))
	for i := range dist {
		dist[i] = inf
	}
	queue := make([]netlist.SignalID, 0, len(c.Outputs))
	for _, o := range c.Outputs {
		if dist[o] != 0 {
			dist[o] = 0
			queue = append(queue, o)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, f := range c.Signals[s].Fanin {
			if dist[f] > dist[s]+1 {
				dist[f] = dist[s] + 1
				queue = append(queue, f)
			}
		}
	}
	return dist
}

// GenerateCtx runs PODEM for fault f with the given backtrack limit.
// The search checks ctx at backtrack boundaries and, once cancelled,
// returns an Aborted result together with the context error. A nil
// context never fires.
func (e *Engine) GenerateCtx(ctx context.Context, f fault.Fault, backtrackLimit int) (Result, error) {
	return e.GenerateMultiCtx(ctx, []sim.Inject{f.Inject()}, backtrackLimit)
}

// GenerateMultiCtx runs PODEM for a fault present at several injection
// sites simultaneously — the time-frame-expansion case, where one
// physical defect appears once per unrolled frame. A test is found when
// any site activates and its effect reaches an output. Cancellation
// works as in GenerateCtx.
func (e *Engine) GenerateMultiCtx(ctx context.Context, injs []sim.Inject, backtrackLimit int) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{Status: Aborted}, err
		}
	}
	res, cancelled := e.generateMulti(ctx, injs, backtrackLimit)
	e.obs.record(&res)
	if cancelled {
		return res, ctx.Err()
	}
	return res, nil
}

// ctxCheckMask throttles cancellation polling: the context is consulted
// once every ctxCheckMask+1 backtracks, keeping the check off the
// per-decision path while still bounding the post-cancel latency to a
// handful of backtracks.
const ctxCheckMask = 15

func (e *Engine) generateMulti(ctx context.Context, injs []sim.Inject, backtrackLimit int) (res Result, cancelled bool) {
	e.loadFault(injs)
	e.reset()

	backtracks := 0
	for {
		e.drain()
		if e.observedD() {
			return Result{Status: Found, Assignment: e.assignment(), Backtracks: backtracks}, false
		}
		frontier := e.dFrontier()
		ok := e.feasible(frontier)
		if ok {
			obj, objOK := e.objective(frontier)
			if objOK {
				pi, v, btOK := e.backtrace(obj.sig, obj.val)
				if btOK {
					e.stack = append(e.stack, decision{pi: pi, value: v})
					e.assign(pi, v)
					continue
				}
			}
			ok = false
		}
		// Dead end: backtrack.
		flipped := false
		for len(e.stack) > 0 {
			top := &e.stack[len(e.stack)-1]
			if !top.triedBoth {
				top.triedBoth = true
				top.value = top.value.Not()
				e.assign(top.pi, top.value)
				backtracks++
				flipped = true
				break
			}
			e.assign(top.pi, logic.X)
			e.stack = e.stack[:len(e.stack)-1]
		}
		if !flipped {
			return Result{Status: Redundant, Backtracks: backtracks}, false
		}
		if backtracks > backtrackLimit {
			return Result{Status: Aborted, Backtracks: backtracks}, false
		}
		if ctx != nil && backtracks&ctxCheckMask == 0 && ctx.Err() != nil {
			return Result{Status: Aborted, Backtracks: backtracks}, true
		}
	}
}

type objectiveT struct {
	sig netlist.SignalID
	val logic.V
}

// Injection-site marks (Engine.site).
const (
	siteStem   uint8 = 1 << iota // the signal carries a stem injection
	siteBranch                   // the gate consumes a branch injection
)

func (e *Engine) loadFault(injs []sim.Inject) {
	for _, in := range e.injs {
		if in.IsStem() {
			e.site[in.Signal] = 0
		} else {
			e.site[in.Gate] = 0
		}
	}
	e.injs = append(e.injs[:0], injs...)
	for _, in := range injs {
		if in.IsStem() {
			e.site[in.Signal] |= siteStem
			e.stuck[in.Signal] = in.Value
		} else {
			e.site[in.Gate] |= siteBranch
		}
	}
	e.stack = e.stack[:0]
	e.buildCone()
}

// buildCone collects the fanout cone of every injection site: the only
// region where fault effects can live.
func (e *Engine) buildCone() {
	for _, s := range e.cone {
		e.inCone[s] = false
		e.isOut[s] = false
	}
	cone := e.cone[:0]
	push := func(s netlist.SignalID) {
		if !e.inCone[s] {
			e.inCone[s] = true
			cone = append(cone, s)
		}
	}
	for _, in := range e.injs {
		if in.IsStem() {
			push(in.Signal)
		} else {
			push(in.Gate)
		}
	}
	for i := 0; i < len(cone); i++ {
		for _, fo := range e.c.Fanouts[cone[i]] {
			push(fo)
		}
	}
	e.cone = cone
	for _, o := range e.c.Outputs {
		if e.inCone[o] {
			e.isOut[o] = true
		}
	}
}

// reset initializes values: everything X, constant gates and fixed
// inputs assigned, full propagation.
func (e *Engine) reset() {
	for i := range e.good {
		e.good[i] = logic.X
		e.flty[i] = logic.X
	}
	for i := range e.inQueue {
		e.inQueue[i] = false
	}
	for i := range e.buckets {
		e.buckets[i] = e.buckets[i][:0]
	}
	for _, s := range e.dset {
		e.dPos[s] = -1
	}
	e.dset = e.dset[:0]
	e.outD = 0
	// A constant gate has no fanin, so no event ever reaches it: seed it
	// like an input.
	for _, g := range e.consts {
		e.set(g, e.c.Signals[g].Op.Eval(nil))
	}
	for _, in := range e.c.Inputs {
		v, fixed := e.m.Fixed[in]
		if !fixed {
			v = logic.X
		}
		e.set(in, v)
	}
	e.drain()
}

// set writes a source value (an input or a constant gate) into both
// machines, honouring a stem fault on it in the faulty machine, and
// schedules its fanout.
func (e *Engine) set(s netlist.SignalID, v logic.V) {
	fv := v
	if e.site[s]&siteStem != 0 {
		fv = e.stuck[s]
	}
	e.good[s], e.flty[s] = v, fv
	if e.inCone[s] {
		e.noteD(s)
	}
	for _, fo := range e.c.Fanouts[s] {
		e.schedule(fo)
	}
}

func (e *Engine) assign(pi netlist.SignalID, v logic.V) {
	e.set(pi, v)
}

// schedule queues gate s for evaluation. Every fanout in a model is a
// gate: inputs have no fanin and a model has no flip-flops.
func (e *Engine) schedule(s netlist.SignalID) {
	if e.inQueue[s] {
		return
	}
	e.inQueue[s] = true
	lvl := e.c.Level[s]
	e.buckets[lvl] = append(e.buckets[lvl], s)
}

// drain runs event-driven levelized propagation until stable. A gate
// outside the fault cone has no faulty fanin and no injection site, so
// it is evaluated in the good machine only and the result copied to the
// faulty one.
func (e *Engine) drain() {
	for lvl := 1; lvl <= e.maxLevel; lvl++ {
		bucket := e.buckets[lvl]
		for i := 0; i < len(bucket); i++ {
			g := bucket[i]
			e.inQueue[g] = false
			s := &e.c.Signals[g]
			gv := evalFrom(s.Op, s.Fanin, e.good)
			if !e.inCone[g] {
				if gv != e.good[g] {
					e.good[g], e.flty[g] = gv, gv
					for _, fo := range e.c.Fanouts[g] {
						e.schedule(fo)
					}
				}
				continue
			}
			fv := e.evalFaulty(g, s)
			if gv != e.good[g] || fv != e.flty[g] {
				e.good[g], e.flty[g] = gv, fv
				e.noteD(g)
				for _, fo := range e.c.Fanouts[g] {
					e.schedule(fo)
				}
			}
		}
		e.buckets[lvl] = bucket[:0]
	}
}

// evalFaulty evaluates cone gate g in the faulty machine, applying the
// branch injections it consumes and a stem injection on its output.
func (e *Engine) evalFaulty(g netlist.SignalID, s *netlist.Signal) logic.V {
	switch site := e.site[g]; {
	case site&siteStem != 0:
		return e.stuck[g]
	case site&siteBranch != 0:
		var fbuf [12]logic.V
		fin := fbuf[:0]
		for _, f := range s.Fanin {
			fin = append(fin, e.flty[f])
		}
		for _, in := range e.injs {
			if in.Gate == g {
				fin[in.Pin] = in.Value
			}
		}
		return s.Op.Eval(fin)
	}
	return evalFrom(s.Op, s.Fanin, e.flty)
}

// evalFrom is logic.Op.Eval over the fanin values read straight from
// vals, without gathering them first.
func evalFrom(op logic.Op, fanin []netlist.SignalID, vals []logic.V) logic.V {
	switch op {
	case logic.OpBuf:
		return vals[fanin[0]]
	case logic.OpNot:
		return vals[fanin[0]].Not()
	case logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor:
		// A controlling input decides the output; otherwise any X input
		// leaves it X.
		ctrl, out := logic.Zero, logic.Zero
		switch op {
		case logic.OpNand:
			out = logic.One
		case logic.OpOr:
			ctrl, out = logic.One, logic.One
		case logic.OpNor:
			ctrl = logic.One
		}
		unknown := false
		for _, f := range fanin {
			switch vals[f] {
			case ctrl:
				return out
			case logic.X:
				unknown = true
			}
		}
		if unknown {
			return logic.X
		}
		return out.Not()
	case logic.OpXor, logic.OpXnor:
		acc := logic.Zero
		for _, f := range fanin {
			acc = acc.Xor(vals[f])
			if acc == logic.X {
				return logic.X
			}
		}
		if op == logic.OpXnor {
			return acc.Not()
		}
		return acc
	}
	return op.Eval(nil) // constants
}

// noteD updates cone signal s's D-set membership after its value
// changed.
func (e *Engine) noteD(s netlist.SignalID) {
	in := e.dPos[s] >= 0
	if e.hasD(s) == in {
		return
	}
	if in {
		i := e.dPos[s]
		last := e.dset[len(e.dset)-1]
		e.dset[i] = last
		e.dPos[last] = i
		e.dset = e.dset[:len(e.dset)-1]
		e.dPos[s] = -1
		if e.isOut[s] {
			e.outD--
		}
		return
	}
	e.dPos[s] = int32(len(e.dset))
	e.dset = append(e.dset, s)
	if e.isOut[s] {
		e.outD++
	}
}

// hasD reports whether signal s carries a fault effect (definite and
// different in the two machines).
func (e *Engine) hasD(s netlist.SignalID) bool {
	return e.good[s].Known() && e.flty[s].Known() && e.good[s] != e.flty[s]
}

// observedD reports whether any primary output carries a fault effect.
func (e *Engine) observedD() bool { return e.outD > 0 }

// activated reports whether some injection site currently sees opposite
// definite values in the two machines.
func (e *Engine) activated() bool {
	for _, in := range e.injs {
		gv := e.good[in.Signal]
		if gv.Known() && gv != in.Value {
			return true
		}
	}
	return false
}

// activationPending reports whether some site could still activate (its
// source value is undetermined).
func (e *Engine) activationPending() bool {
	for _, in := range e.injs {
		if e.good[in.Signal] == logic.X {
			return true
		}
	}
	return false
}

// feasible checks whether the current partial assignment can still lead
// to a test: either some site can still activate, or an activated
// effect has a D-frontier with an X-path to an output.
func (e *Engine) feasible(frontier []netlist.SignalID) bool {
	if e.activated() {
		if len(frontier) > 0 && e.xPathExists(frontier) {
			return true
		}
	}
	return e.activationPending()
}

// dFrontier returns gates with a fault effect on an input and an
// undetermined output, in c.Order order. The candidates are the fanouts
// of the D-set plus the branch-injection gates (a stuck branch makes a D
// on a pin whose source carries none), so the cost follows the fault
// effect, not the cone. The returned slice is engine-owned scratch,
// valid until the next call.
func (e *Engine) dFrontier() []netlist.SignalID {
	e.epoch++
	ep := e.epoch
	frontier := e.frontier[:0]
	consider := func(g netlist.SignalID) {
		if e.seenEpoch[g] == ep {
			return
		}
		e.seenEpoch[g] = ep
		if e.good[g].Known() && e.flty[g].Known() {
			return
		}
		if e.site[g]&siteBranch != 0 && !e.branchPinD(g) {
			return
		}
		frontier = append(frontier, g)
	}
	for _, s := range e.dset {
		for _, fo := range e.c.Fanouts[s] {
			consider(fo)
		}
	}
	for _, in := range e.injs {
		if !in.IsStem() {
			consider(in.Gate)
		}
	}
	slices.SortFunc(frontier, func(a, b netlist.SignalID) int {
		return int(e.pos[a] - e.pos[b])
	})
	e.frontier = frontier
	return frontier
}

// branchPinD reports whether branch-injection gate g sees a fault effect
// on some input pin, with its stuck branches applied.
func (e *Engine) branchPinD(g netlist.SignalID) bool {
	for pin, f := range e.c.Signals[g].Fanin {
		gv, fv := e.good[f], e.flty[f]
		for _, in := range e.injs {
			if in.Gate == g && in.Pin == pin {
				fv = in.Value
			}
		}
		if gv.Known() && fv.Known() && gv != fv {
			return true
		}
	}
	return false
}

// xPathExists reports whether some frontier gate reaches an output
// through signals undetermined in at least one machine.
func (e *Engine) xPathExists(frontier []netlist.SignalID) bool {
	e.epoch++
	ep := e.epoch
	stack := append(e.xstack[:0], frontier...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.seenEpoch[s] == ep {
			continue
		}
		e.seenEpoch[s] = ep
		if e.isOutput(s) {
			e.xstack = stack[:0]
			return true
		}
		for _, fo := range e.c.Fanouts[s] {
			if e.seenEpoch[fo] != ep && (!e.good[fo].Known() || !e.flty[fo].Known()) {
				stack = append(stack, fo)
			}
		}
	}
	e.xstack = stack[:0]
	return false
}

func (e *Engine) isOutput(s netlist.SignalID) bool { return e.isOut[s] }

// objective picks the next (signal, value) goal: activate the fault if
// not yet activated, otherwise advance the best D-frontier gate by
// setting one of its undetermined side inputs to the non-controlling
// value.
func (e *Engine) objective(frontier []netlist.SignalID) (objectiveT, bool) {
	if !e.activated() || len(frontier) == 0 {
		// Work on activating a pending site.
		for _, in := range e.injs {
			if e.good[in.Signal] == logic.X {
				return objectiveT{sig: in.Signal, val: in.Value.Not()}, true
			}
		}
		return objectiveT{}, false
	}
	best := frontier[0]
	for _, g := range frontier[1:] {
		if e.obsDist[g] < e.obsDist[best] {
			best = g
		}
	}
	s := &e.c.Signals[best]
	nc, hasNC := s.Op.NonControlling()
	pick := netlist.None
	for _, f := range s.Fanin {
		if e.good[f] != logic.X {
			continue
		}
		if !hasNC {
			return objectiveT{sig: f, val: logic.Zero}, true // XOR/XNOR side: any definite value
		}
		if pick == netlist.None || e.cc(f, nc) < e.cc(pick, nc) {
			pick = f
		}
	}
	if pick == netlist.None {
		return objectiveT{}, false
	}
	return objectiveT{sig: pick, val: nc}, true
}

// backtrace maps an objective back to an unassigned decision input,
// choosing easy (minimum level) inputs when a single controlling value
// suffices and hard (maximum level) inputs when all inputs must be set.
func (e *Engine) backtrace(sig netlist.SignalID, val logic.V) (netlist.SignalID, logic.V, bool) {
	for {
		s := &e.c.Signals[sig]
		if s.Kind == netlist.KindInput {
			if _, fixed := e.m.Fixed[sig]; fixed {
				return netlist.None, logic.X, false
			}
			if e.good[sig] != logic.X {
				return netlist.None, logic.X, false
			}
			return sig, val, true
		}
		op := s.Op
		switch op {
		case logic.OpBuf:
			sig = s.Fanin[0]
		case logic.OpNot:
			sig = s.Fanin[0]
			val = val.Not()
		case logic.OpConst0, logic.OpConst1:
			return netlist.None, logic.X, false
		case logic.OpXor, logic.OpXnor:
			// Target the first undetermined input; required value assumes
			// remaining X inputs resolve to 0.
			acc := logic.Zero
			var pick netlist.SignalID = netlist.None
			for _, f := range s.Fanin {
				if e.good[f] == logic.X && pick == netlist.None {
					pick = f
					continue
				}
				acc = acc.Xor(e.good[f])
			}
			if pick == netlist.None {
				return netlist.None, logic.X, false
			}
			want := val
			if op == logic.OpXnor {
				want = want.Not()
			}
			if acc.Known() {
				want = want.Xor(acc)
			}
			if !want.Known() {
				want = logic.Zero
			}
			sig, val = pick, want
		default:
			ctrl, _ := op.Controlling()
			inv := op.Inverting()
			controlledOut := ctrl
			if inv {
				controlledOut = ctrl.Not()
			}
			if val == controlledOut {
				// One controlling input suffices: pick the cheapest
				// (SCOAP) undetermined input.
				pick := netlist.None
				for _, f := range s.Fanin {
					if e.good[f] != logic.X {
						continue
					}
					if pick == netlist.None || e.cc(f, ctrl) < e.cc(pick, ctrl) {
						pick = f
					}
				}
				if pick == netlist.None {
					return netlist.None, logic.X, false
				}
				sig, val = pick, ctrl
			} else {
				// All inputs must be non-controlling: pick the hardest
				// (highest SCOAP cost) undetermined input first.
				pick := netlist.None
				nc := ctrl.Not()
				for _, f := range s.Fanin {
					if e.good[f] != logic.X {
						continue
					}
					if pick == netlist.None || e.cc(f, nc) > e.cc(pick, nc) {
						pick = f
					}
				}
				if pick == netlist.None {
					return netlist.None, logic.X, false
				}
				sig, val = pick, nc
			}
		}
	}
}

// assignment snapshots the current free-input assignment.
func (e *Engine) assignment() map[netlist.SignalID]logic.V {
	out := make(map[netlist.SignalID]logic.V, len(e.stack))
	for _, d := range e.stack {
		out[d.pi] = d.value
	}
	return out
}
