// Package tpi implements test point insertion for functional scan
// (Lin, Marek-Sadowska, Cheng, Lee — DAC'97), the technique the paper
// builds on: establish scan paths through mission combinational logic by
// forcing the side inputs of a chosen flip-flop-to-flip-flop path to
// non-controlling values during scan mode, using primary-input
// assignments where possible and inserted test points otherwise.
//
// When no functional path between two flip-flops can be sensitized, the
// link falls back to inserted multiplexer gates (the conventional
// MUXed-scan construction); head segments always use the inserted form
// to bring in the dedicated scan-in pin. Either way the result is a
// uniform scan.Design whose every link is a sensitized combinational
// path — which is exactly what makes testing the chain itself
// non-trivial and motivates the paper.
package tpi

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Options configures scan insertion.
type Options struct {
	NumChains int   // number of scan chains (clamped to 1..scan flip-flops)
	Seed      int64 // tie-breaking randomness

	// ScanFFs restricts the chains to this flip-flop subset (partial
	// scan); the rest keep their mission D input and are recorded in
	// Design.NonScan. Nil selects every flip-flop (full scan). Use
	// SelectPartialScan for a feedback-breaking subset.
	ScanFFs []netlist.SignalID
}

// The functional-link search's effort limits.
const (
	maxPathLen    = 8   // maximum gates on a functional path
	maxPathsTried = 12  // DFS path candidates examined per link
	justifyDepth  = 24  // recursion depth for PI-assignment justification
	maxCandidates = 16  // candidate successors kept per flip-flop
	coneCap       = 600 // forward-cone exploration cap per flip-flop
)

type builder struct {
	opts Options
	c    *netlist.Circuit
	r    *rand.Rand

	scanMode netlist.SignalID
	nsm      netlist.SignalID // NOT(scan_mode), shared by 0-forcing points and fallback muxes

	assignments map[netlist.SignalID]logic.V
	reserved    map[netlist.SignalID]bool // inputs justification may not touch (scan-ins)
	protected   map[netlist.SignalID]bool // on-path nets
	testPoints  []netlist.SignalID

	// The circuit is finalized once, when the builder starts; every edit
	// after that keeps these in step itself, so each costs in proportion
	// to the signals it actually moves. They always equal what a fresh
	// Finalize and a full scan-mode evaluation would give.
	inputs  []netlist.SignalID   // primary inputs in declaration order
	fanouts [][]netlist.SignalID // consumers of each signal, by consumer ID
	level   []int                // combinational level (PIs and FFs 0)
	vals    []logic.V            // scan mode: assigned inputs constant, free inputs and FFs X

	// Scratch reset in proportion to what each use touched.
	queued  []bool               // gate waits in buckets
	buckets [][]netlist.SignalID // gates to re-evaluate, by level
	dist    []int32              // 1 + gates from a signal to the path target; 0 = cannot reach it
	reached []netlist.SignalID   // signals with dist set
	onPath  []bool               // gate is on the path being extended

	muxCounter int
	tpCounter  int
}

// Insert builds a functional scan design for circuit orig. orig is not
// modified.
func Insert(orig *netlist.Circuit, opts Options) (*scan.Design, error) {
	if len(orig.FFs) == 0 {
		return nil, fmt.Errorf("tpi: circuit %q has no flip-flops", orig.Name)
	}
	scanSet := make(map[netlist.SignalID]bool, len(orig.FFs))
	if opts.ScanFFs == nil {
		for _, ff := range orig.FFs {
			scanSet[ff] = true
		}
	} else {
		if len(opts.ScanFFs) == 0 {
			return nil, fmt.Errorf("tpi: empty ScanFFs selection")
		}
		for _, ff := range opts.ScanFFs {
			if int(ff) >= len(orig.Signals) || !orig.IsFF(ff) {
				return nil, fmt.Errorf("tpi: ScanFFs entry %d is not a flip-flop", ff)
			}
			scanSet[ff] = true
		}
	}
	opts.NumChains = min(max(opts.NumChains, 1), len(scanSet))

	b, err := newBuilder(orig, opts)
	if err != nil {
		return nil, err
	}
	candidates := b.successorCandidates(orig)
	chains, err := b.buildChains(candidates, scanSet)
	if err != nil {
		return nil, err
	}
	var nonScan []netlist.SignalID
	for _, ff := range b.c.FFs {
		if !scanSet[ff] {
			nonScan = append(nonScan, ff)
		}
	}

	// Scan-out pins: the last flip-flop of each chain becomes a primary
	// output unless it already is one.
	isPO := make(map[netlist.SignalID]bool, len(b.c.Outputs))
	for _, o := range b.c.Outputs {
		isPO[o] = true
	}
	for i := range chains {
		so := chains[i].ScanOut()
		if !isPO[so] {
			if err := b.c.MarkOutput(so); err != nil {
				return nil, err
			}
			isPO[so] = true
		}
	}
	if err := b.c.Finalize(); err != nil {
		return nil, err
	}

	d := &scan.Design{
		C:           b.c,
		Assignments: b.assignments,
		ScanModePI:  b.scanMode,
		Chains:      chains,
		TestPoints:  b.testPoints,
		NonScan:     nonScan,
	}
	d.Init()
	if err := d.Verify(); err != nil {
		return nil, fmt.Errorf("tpi: inconsistent design: %v", err)
	}
	return d, nil
}

// newBuilder clones orig, adds the scan-mode pin (assigned 1) and its
// inverter, finalizes the clone and evaluates scan mode once in full.
func newBuilder(orig *netlist.Circuit, opts Options) (*builder, error) {
	b := &builder{
		opts:        opts,
		c:           orig.Clone(),
		r:           rand.New(rand.NewSource(opts.Seed)),
		assignments: make(map[netlist.SignalID]logic.V),
		reserved:    make(map[netlist.SignalID]bool),
		protected:   make(map[netlist.SignalID]bool),
	}
	var err error
	if b.scanMode, err = b.c.AddInput("scan_mode"); err != nil {
		return nil, err
	}
	if b.nsm, err = b.c.AddGate("scan_mode_n", logic.OpNot, b.scanMode); err != nil {
		return nil, err
	}
	b.assignments[b.scanMode] = logic.One
	if err := b.c.Finalize(); err != nil {
		return nil, err
	}
	// The final Finalize rebuilds the circuit's own derived slices, so
	// the builder may take these over and edit them in place.
	b.inputs = append([]netlist.SignalID(nil), b.c.Inputs...)
	b.fanouts = b.c.Fanouts
	b.level = b.c.Level
	e := sim.NewComb(b.c)
	e.ClearX()
	for in, v := range b.assignments {
		e.Vals[in] = v
	}
	e.Eval(nil)
	b.vals = e.Vals
	n := len(b.c.Signals)
	b.queued = make([]bool, n)
	b.dist = make([]int32, n)
	b.onPath = make([]bool, n)
	return b, nil
}

// added records the bookkeeping of a signal just appended to the
// circuit: no consumers yet, the given level and scan-mode value.
func (b *builder) added(level int, v logic.V) {
	b.fanouts = append(b.fanouts, nil)
	b.level = append(b.level, level)
	b.vals = append(b.vals, v)
	b.queued = append(b.queued, false)
	b.dist = append(b.dist, 0)
	b.onPath = append(b.onPath, false)
}

// addInput declares a free primary input: level 0, X in scan mode.
func (b *builder) addInput(name string) (netlist.SignalID, error) {
	id, err := b.c.AddInput(name)
	if err != nil {
		return netlist.None, err
	}
	b.inputs = append(b.inputs, id)
	b.added(0, logic.X)
	return id, nil
}

// addGate declares a gate over existing signals. Its ID is the largest
// yet, so appending it keeps every fanout list in consumer-ID order, and
// nothing reads it yet, so its level and value follow from its fanins.
func (b *builder) addGate(name string, op logic.Op, fanin ...netlist.SignalID) (netlist.SignalID, error) {
	id, err := b.c.AddGate(name, op, fanin...)
	if err != nil {
		return netlist.None, err
	}
	lvl := 0
	in := make([]logic.V, len(fanin))
	for i, f := range fanin {
		b.fanouts[f] = append(b.fanouts[f], id)
		lvl = max(lvl, b.level[f])
		in[i] = b.vals[f]
	}
	b.added(lvl+1, op.Eval(in))
	return id, nil
}

// rewire points pin pin of g at src. g leaves the old source's fanout
// list and joins src's at its consumer-ID place. A flip-flop's level
// and scan-mode value do not depend on its D pin; a gate's level is
// raised through its fanout as far as it moves, and its value change
// is propagated.
func (b *builder) rewire(g netlist.SignalID, pin int, src netlist.SignalID) error {
	old := b.c.Signals[g].Fanin[pin]
	if err := b.c.SetFanin(g, pin, src); err != nil {
		return err
	}
	fo := b.fanouts[old]
	i := slices.Index(fo, g)
	b.fanouts[old] = slices.Delete(fo, i, i+1)
	at, _ := slices.BinarySearch(b.fanouts[src], g)
	b.fanouts[src] = slices.Insert(b.fanouts[src], at, g)
	if !b.c.IsGate(g) {
		return nil
	}
	b.relevel(g)
	b.schedule(g)
	b.settle()
	return nil
}

// relevel recomputes g's level from its fanins and carries any change
// through its gate fanout.
func (b *builder) relevel(g netlist.SignalID) {
	stack := []netlist.SignalID{g}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lvl := 0
		for _, f := range b.c.Signals[s].Fanin {
			lvl = max(lvl, b.level[f])
		}
		if lvl+1 == b.level[s] {
			continue
		}
		b.level[s] = lvl + 1
		for _, fo := range b.fanouts[s] {
			if b.c.IsGate(fo) {
				stack = append(stack, fo)
			}
		}
	}
}

// schedule queues gate g for re-evaluation.
func (b *builder) schedule(g netlist.SignalID) {
	if b.queued[g] {
		return
	}
	b.queued[g] = true
	l := b.level[g]
	for len(b.buckets) <= l {
		b.buckets = append(b.buckets, nil)
	}
	b.buckets[l] = append(b.buckets[l], g)
}

// settle re-evaluates the queued gates level by level. A gate whose
// value changes queues its gate consumers, which sit at higher levels,
// so every gate is evaluated after all of its changed fanins.
func (b *builder) settle() {
	var buf [8]logic.V
	for l := 0; l < len(b.buckets); l++ {
		for i := 0; i < len(b.buckets[l]); i++ {
			g := b.buckets[l][i]
			b.queued[g] = false
			s := &b.c.Signals[g]
			in := buf[:0]
			for _, f := range s.Fanin {
				in = append(in, b.vals[f])
			}
			if v := s.Op.Eval(in); v != b.vals[g] {
				b.vals[g] = v
				for _, fo := range b.fanouts[g] {
					if b.c.IsGate(fo) {
						b.schedule(fo)
					}
				}
			}
		}
		b.buckets[l] = b.buckets[l][:0]
	}
}

// propagate brings the scan-mode values in step with b.assignments
// (assigned inputs constant, the rest X), re-evaluating only the gates
// downstream of inputs whose value changed.
func (b *builder) propagate() {
	for _, in := range b.inputs {
		v, ok := b.assignments[in]
		if !ok {
			v = logic.X
		}
		if v == b.vals[in] {
			continue
		}
		b.vals[in] = v
		for _, fo := range b.fanouts[in] {
			if b.c.IsGate(fo) {
				b.schedule(fo)
			}
		}
	}
	b.settle()
}

func (b *builder) val(s netlist.SignalID) logic.V { return b.vals[s] }

// successorCandidates finds, per flip-flop, the flip-flops whose D cone
// its output reaches within maxPathLen gates — the functional-link
// candidates, nearest first.
func (b *builder) successorCandidates(orig *netlist.Circuit) map[netlist.SignalID][]netlist.SignalID {
	dsrcOf := make(map[netlist.SignalID][]netlist.SignalID) // D-source signal -> FFs
	for _, ff := range orig.FFs {
		d := orig.Signals[ff].Fanin[0]
		dsrcOf[d] = append(dsrcOf[d], ff)
	}
	out := make(map[netlist.SignalID][]netlist.SignalID, len(orig.FFs))
	type qe struct {
		sig  netlist.SignalID
		dist int
	}
	for _, q := range orig.FFs {
		seen := map[netlist.SignalID]bool{q: true}
		queue := []qe{{q, 0}}
		visited := 0
		var cands []netlist.SignalID
		have := map[netlist.SignalID]bool{}
		for len(queue) > 0 && visited < coneCap && len(cands) < maxCandidates {
			cur := queue[0]
			queue = queue[1:]
			visited++
			for _, fo := range orig.Fanouts[cur.sig] {
				if seen[fo] || !orig.IsGate(fo) || cur.dist+1 > maxPathLen {
					continue
				}
				seen[fo] = true
				for _, ff := range dsrcOf[fo] {
					if ff != q && !have[ff] {
						have[ff] = true
						cands = append(cands, ff)
					}
				}
				queue = append(queue, qe{fo, cur.dist + 1})
			}
		}
		out[q] = cands
	}
	return out
}

// buildChains partitions the scan-selected flip-flops into chains,
// preferring functional links to candidates and falling back to
// inserted muxes.
func (b *builder) buildChains(candidates map[netlist.SignalID][]netlist.SignalID, scanSet map[netlist.SignalID]bool) ([]scan.Chain, error) {
	used := make(map[netlist.SignalID]bool)
	remaining := len(scanSet)
	var chains []scan.Chain

	// The paper leaves the ordering of flip-flops without functional
	// links to the designer; the seed picks one such ordering, so
	// different seeds explore the flexibility (examples/orderingsweep).
	order := make([]netlist.SignalID, 0, len(scanSet))
	for _, ff := range b.c.FFs {
		if scanSet[ff] {
			order = append(order, ff)
		}
	}
	b.r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	cursor := 0 // order[:cursor] is all used
	nextUnused := func() netlist.SignalID {
		for ; cursor < len(order); cursor++ {
			if !used[order[cursor]] {
				return order[cursor]
			}
		}
		return netlist.None
	}

	for ci := 0; ci < b.opts.NumChains && remaining > 0; ci++ {
		target := remaining / (b.opts.NumChains - ci)
		if target < 1 {
			target = 1
		}
		start := nextUnused()
		used[start] = true
		remaining--

		scanIn, err := b.addInput(fmt.Sprintf("scan_in%d", ci))
		if err != nil {
			return nil, err
		}
		b.reserved[scanIn] = true
		head, err := b.insertMuxLink(scanIn, start)
		if err != nil {
			return nil, err
		}
		ch := scan.Chain{ID: ci, ScanIn: scanIn, FFs: []netlist.SignalID{start}, Segment: []scan.Segment{head}}

		for ch.Len() < target && remaining > 0 {
			cur := ch.FFs[ch.Len()-1]
			var next netlist.SignalID = netlist.None
			var seg scan.Segment
			for _, cand := range candidates[cur] {
				if used[cand] || !scanSet[cand] {
					continue
				}
				if s, ok := b.tryFunctionalLink(cur, cand); ok {
					next, seg = cand, s
					break
				}
			}
			if next == netlist.None {
				next = nextUnused()
				s, err := b.insertMuxLink(cur, next)
				if err != nil {
					return nil, err
				}
				seg = s
			}
			used[next] = true
			remaining--
			ch.FFs = append(ch.FFs, next)
			ch.Segment = append(ch.Segment, seg)
		}
		chains = append(chains, ch)
	}
	return chains, nil
}

// insertMuxLink builds the conventional scan link from source signal src
// (a flip-flop Q or a scan-in pin) into ff's D through inserted gates:
//
//	d' = OR(AND(src, scan_mode), AND(oldD, !scan_mode))
//
// The AND/OR pair is itself a sensitized functional path in scan mode,
// so it is described as a Segment like any other.
func (b *builder) insertMuxLink(src, ff netlist.SignalID) (scan.Segment, error) {
	oldD := b.c.Signals[ff].Fanin[0]
	n := b.muxCounter
	b.muxCounter++
	andScan, err := b.addGate(fmt.Sprintf("mux%d_s", n), logic.OpAnd, src, b.scanMode)
	if err != nil {
		return scan.Segment{}, err
	}
	andFunc, err := b.addGate(fmt.Sprintf("mux%d_f", n), logic.OpAnd, oldD, b.nsm)
	if err != nil {
		return scan.Segment{}, err
	}
	orG, err := b.addGate(fmt.Sprintf("mux%d_o", n), logic.OpOr, andScan, andFunc)
	if err != nil {
		return scan.Segment{}, err
	}
	if err := b.rewire(ff, 0, orG); err != nil {
		return scan.Segment{}, err
	}
	b.protected[andScan] = true
	b.protected[orG] = true
	return scan.Segment{
		To:   ff,
		Path: []netlist.SignalID{andScan, orG},
		Sides: []scan.SideInput{
			{Gate: andScan, Pin: 1, Want: logic.One}, // scan_mode
			{Gate: orG, Pin: 1, Want: logic.Zero},    // functional branch gated off
		},
		Invert: false,
		Kind:   scan.Inserted,
	}, nil
}
