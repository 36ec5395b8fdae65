package tpi

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
)

// maxTestPointsPerLink bounds how many test points a single functional
// link may spend before the cheaper MUX fallback wins.
const maxTestPointsPerLink = 3

// plannedTP is a branch test point decided during a link attempt and
// materialized only if the whole link commits.
type plannedTP struct {
	gate  netlist.SignalID
	pin   int
	force logic.V
}

// tryFunctionalLink attempts to establish a sensitized path from q's
// output to the D input of ff. On success it returns the committed
// segment; on failure the builder state is unchanged.
func (b *builder) tryFunctionalLink(q, ff netlist.SignalID) (scan.Segment, bool) {
	dsrc := b.c.Signals[ff].Fanin[0]
	paths := b.enumeratePaths(q, dsrc)
	for _, path := range paths {
		if seg, ok := b.trySensitize(q, ff, path); ok {
			return seg, true
		}
	}
	return scan.Segment{}, false
}

// enumeratePaths finds up to maxPathsTried simple gate paths from q to
// target by depth-first search, shortest alternatives first. Candidate
// path nets must currently be X in scan mode (definite nets cannot
// carry shift data) and must not belong to an established segment.
//
// A branch is entered only if target is still within reach of it in
// the depth left, by the backward distance distancesTo measures over
// candidate nets. That distance ignores only the no-revisit rule, so
// it never prunes a branch that holds a path: the paths found and their
// order are those of the unpruned search.
func (b *builder) enumeratePaths(q, target netlist.SignalID) [][]netlist.SignalID {
	if !b.pathCandidate(target) {
		return nil
	}
	b.distancesTo(target)
	defer b.clearDistances()

	var paths [][]netlist.SignalID
	var cur []netlist.SignalID
	var dfs func(sig netlist.SignalID, depth int)
	dfs = func(sig netlist.SignalID, depth int) {
		if depth > maxPathLen {
			return
		}
		for _, fo := range b.fanouts[sig] {
			if len(paths) >= maxPathsTried {
				return
			}
			if fo == target {
				cur = append(cur, fo)
				paths = append(paths, append([]netlist.SignalID(nil), cur...))
				cur = cur[:len(cur)-1]
				continue
			}
			// dist-1 more gates reach target from fo, which sits at depth.
			if d := int(b.dist[fo]); d == 0 || depth+d-1 > maxPathLen || b.onPath[fo] {
				continue
			}
			cur = append(cur, fo)
			b.onPath[fo] = true
			dfs(fo, depth+1)
			b.onPath[fo] = false
			cur = cur[:len(cur)-1]
		}
	}
	dfs(q, 1)
	return paths
}

// pathCandidate reports whether net s may lie on a new segment's path:
// a gate, X in scan mode (which rules out constant gates) and on no
// established segment.
func (b *builder) pathCandidate(s netlist.SignalID) bool {
	return b.c.IsGate(s) && !b.protected[s] && b.val(s) == logic.X
}

// distancesTo sets dist for every candidate net with a candidate path
// to target short enough to fit in a segment: 1 for target itself, one
// more per gate before it.
func (b *builder) distancesTo(target netlist.SignalID) {
	b.dist[target] = 1
	b.reached = append(b.reached[:0], target)
	for i := 0; i < len(b.reached); i++ {
		s := b.reached[i]
		d := b.dist[s]
		if int(d) >= maxPathLen {
			continue
		}
		for _, f := range b.c.Signals[s].Fanin {
			if b.dist[f] == 0 && b.pathCandidate(f) {
				b.dist[f] = d + 1
				b.reached = append(b.reached, f)
			}
		}
	}
}

func (b *builder) clearDistances() {
	for _, s := range b.reached {
		b.dist[s] = 0
	}
	b.reached = b.reached[:0]
}

// trySensitize attempts to force every side input of the path to a
// non-controlling value via existing constants, new PI assignments, or
// planned test points. All effects are rolled back on failure.
func (b *builder) trySensitize(q, ff netlist.SignalID, path []netlist.SignalID) (scan.Segment, bool) {
	saved := make(map[netlist.SignalID]logic.V, len(b.assignments))
	for k, v := range b.assignments {
		saved[k] = v
	}
	rollback := func() {
		b.assignments = saved
		b.propagate()
	}

	var (
		sides   []scan.SideInput
		planned []plannedTP
		invert  bool
	)
	prev := q
	for _, g := range path {
		s := &b.c.Signals[g]
		pathPin := -1
		for pin, f := range s.Fanin {
			if f == prev && pathPin < 0 {
				pathPin = pin
				continue
			}
			// Side input: needs a constant.
			want, resolved, tp, ok := b.ensureSide(g, pin, s.Op, planned)
			if !ok {
				rollback()
				return scan.Segment{}, false
			}
			if tp != nil {
				if len(planned) >= maxTestPointsPerLink {
					rollback()
					return scan.Segment{}, false
				}
				planned = append(planned, *tp)
			}
			sides = append(sides, scan.SideInput{Gate: g, Pin: pin, Want: want})
			if resolved == logic.One && (s.Op == logic.OpXor || s.Op == logic.OpXnor) {
				invert = !invert
			}
		}
		if pathPin < 0 {
			rollback()
			return scan.Segment{}, false
		}
		switch s.Op {
		case logic.OpNot, logic.OpNand, logic.OpNor, logic.OpXnor:
			invert = !invert
		}
		prev = g
	}

	// Verify the link under the final propagation BEFORE materializing
	// test points, so failure leaves no circuit mutation behind.
	// Test-point-forced sides are skipped: the forcing gate pins them by
	// construction.
	b.propagate()
	tpPinned := make(map[[2]int]bool, len(planned))
	for _, tp := range planned {
		tpPinned[[2]int{int(tp.gate), tp.pin}] = true
	}
	for _, si := range sides {
		if tpPinned[[2]int{int(si.Gate), si.Pin}] {
			continue
		}
		net := b.c.Signals[si.Gate].Fanin[si.Pin]
		if b.val(net) != si.Want {
			rollback()
			return scan.Segment{}, false
		}
	}
	for _, p := range path {
		if b.val(p) != logic.X {
			rollback()
			return scan.Segment{}, false
		}
	}
	for _, tp := range planned {
		if _, err := b.insertTestPoint(tp); err != nil {
			rollback()
			return scan.Segment{}, false
		}
	}

	for _, p := range path {
		b.protected[p] = true
	}
	return scan.Segment{
		To:     ff,
		Path:   append([]netlist.SignalID(nil), path...),
		Sides:  sides,
		Invert: invert,
		Kind:   scan.Functional,
	}, true
}

// ensureSide makes pin pin of gate g read a constant during scan mode.
// It returns the value the segment records as required (want), the
// resolved constant (for XOR parity), and optionally a planned test
// point. For AND/NAND/OR/NOR the constant must be the non-controlling
// value; for XOR/XNOR any constant works.
func (b *builder) ensureSide(g netlist.SignalID, pin int, op logic.Op, planned []plannedTP) (want, resolved logic.V, tp *plannedTP, ok bool) {
	net := b.c.Signals[g].Fanin[pin]
	// A test point already planned for this exact pin wins.
	for i := range planned {
		if planned[i].gate == g && planned[i].pin == pin {
			return planned[i].force, planned[i].force, nil, true
		}
	}
	nc, hasNC := op.NonControlling()
	cur := b.val(net)
	if hasNC {
		if cur == nc {
			return nc, nc, nil, true
		}
		if cur == logic.X && b.justify(net, nc) {
			return nc, nc, nil, true
		}
		return nc, nc, &plannedTP{gate: g, pin: pin, force: nc}, true
	}
	// XOR/XNOR side: any constant sensitizes; prefer the current value,
	// then justification to 0 or 1, then a forcing point to 0.
	if cur.Known() {
		return cur, cur, nil, true
	}
	if b.justify(net, logic.Zero) {
		return logic.Zero, logic.Zero, nil, true
	}
	if b.justify(net, logic.One) {
		return logic.One, logic.One, nil, true
	}
	return logic.Zero, logic.Zero, &plannedTP{gate: g, pin: pin, force: logic.Zero}, true
}

// justify tries to force net to value v with additional primary-input
// assignments. On success the assignments are committed and propagated;
// on failure the builder state is unchanged.
func (b *builder) justify(net netlist.SignalID, v logic.V) bool {
	acc := make(map[netlist.SignalID]logic.V)
	if !b.propose(net, v, justifyDepth, acc) {
		return false
	}
	if len(acc) == 0 {
		return b.val(net) == v
	}
	saved := make(map[netlist.SignalID]logic.V, len(b.assignments))
	for k, vv := range b.assignments {
		saved[k] = vv
	}
	for k, vv := range acc {
		b.assignments[k] = vv
	}
	b.propagate()
	if b.val(net) != v {
		b.assignments = saved
		b.propagate()
		return false
	}
	return true
}

// propose recursively collects primary-input assignments that would set
// net to v, based on the current propagation. It is structural and
// optimistic; justify verifies the result by re-propagation.
func (b *builder) propose(net netlist.SignalID, v logic.V, depth int, acc map[netlist.SignalID]logic.V) bool {
	if cur := b.val(net); cur == v {
		return true
	} else if cur != logic.X {
		return false
	}
	if prev, ok := acc[net]; ok {
		return prev == v
	}
	s := &b.c.Signals[net]
	switch s.Kind {
	case netlist.KindInput:
		if b.reserved[net] {
			return false
		}
		if prev, ok := b.assignments[net]; ok {
			return prev == v
		}
		acc[net] = v
		return true
	case netlist.KindFF:
		return false
	}
	if depth <= 0 {
		return false
	}
	op := s.Op
	switch op {
	case logic.OpBuf:
		return b.propose(s.Fanin[0], v, depth-1, acc)
	case logic.OpNot:
		return b.propose(s.Fanin[0], v.Not(), depth-1, acc)
	case logic.OpConst0, logic.OpConst1:
		return false // value is fixed and != v (checked above)
	case logic.OpXor, logic.OpXnor:
		return false
	}
	ctrl, _ := op.Controlling()
	controlledOut := ctrl
	if op.Inverting() {
		controlledOut = ctrl.Not()
	}
	if v == controlledOut {
		// One controlling input suffices: try each in turn with a
		// scratch copy so failed branches leave no residue.
		for _, f := range s.Fanin {
			scratch := make(map[netlist.SignalID]logic.V, len(acc))
			for k, vv := range acc {
				scratch[k] = vv
			}
			if b.propose(f, ctrl, depth-1, scratch) {
				for k, vv := range scratch {
					acc[k] = vv
				}
				return true
			}
		}
		return false
	}
	// All inputs must be non-controlling.
	for _, f := range s.Fanin {
		if !b.propose(f, ctrl.Not(), depth-1, acc) {
			return false
		}
	}
	return true
}

// insertTestPoint materializes a branch test point: pin tp.pin of gate
// tp.gate is rewired through a forcing gate that pins it to tp.force
// during scan mode and is transparent otherwise.
func (b *builder) insertTestPoint(tp plannedTP) (netlist.SignalID, error) {
	net := b.c.Signals[tp.gate].Fanin[tp.pin]
	name := fmt.Sprintf("tp%d", b.tpCounter)
	b.tpCounter++
	var g netlist.SignalID
	var err error
	if tp.force == logic.One {
		g, err = b.addGate(name, logic.OpOr, net, b.scanMode)
	} else {
		g, err = b.addGate(name, logic.OpAnd, net, b.nsm)
	}
	if err != nil {
		return netlist.None, err
	}
	if err := b.rewire(tp.gate, tp.pin, g); err != nil {
		return netlist.None, err
	}
	b.testPoints = append(b.testPoints, g)
	return g, nil
}
