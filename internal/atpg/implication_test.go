package atpg

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// randomComb builds a small seeded combinational circuit: every gate
// draws its fanin from all earlier signals, so fanout stems reconverge,
// and the op mix includes XOR/XNOR and the odd constant driver.
func randomComb(seed int64) *netlist.Circuit {
	r := rand.New(rand.NewSource(seed))
	c := netlist.New(fmt.Sprintf("rc%d", seed))
	var sigs []netlist.SignalID
	for i := 0; i < 3+r.Intn(4); i++ {
		id, _ := c.AddInput(fmt.Sprintf("i%d", i))
		sigs = append(sigs, id)
	}
	ops := []logic.Op{logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor,
		logic.OpXor, logic.OpXnor, logic.OpNot, logic.OpBuf}
	gates := 8 + r.Intn(16)
	for i := 0; i < gates; i++ {
		name := fmt.Sprintf("g%d", i)
		var id netlist.SignalID
		if r.Intn(12) == 0 {
			op := logic.OpConst0 + logic.Op(r.Intn(2))
			id, _ = c.AddGate(name, op)
		} else {
			op := ops[r.Intn(len(ops))]
			n := 1
			if op != logic.OpNot && op != logic.OpBuf {
				n = 2 + r.Intn(2)
			}
			fanin := make([]netlist.SignalID, n)
			for j := range fanin {
				fanin[j] = sigs[r.Intn(len(sigs))]
			}
			id, _ = c.AddGate(name, op, fanin...)
		}
		sigs = append(sigs, id)
	}
	for i := 0; i < 1+r.Intn(3); i++ {
		_ = c.MarkOutput(sigs[len(sigs)-1-i])
	}
	if err := c.Finalize(); err != nil {
		panic(err)
	}
	return c
}

// oracleFrontier is the D-frontier by brute force, the full in-order
// scan of the fault cone the engine ran before it kept a D-set: every
// cone gate with an undetermined output and a fault effect on some pin,
// stuck branches applied. The cone is rebuilt here from the injections.
func oracleFrontier(e *Engine) []netlist.SignalID {
	inCone := make([]bool, len(e.c.Signals))
	var stack []netlist.SignalID
	for _, in := range e.injs {
		s := in.Signal
		if !in.IsStem() {
			s = in.Gate
		}
		inCone[s] = true
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range e.c.Fanouts[s] {
			if !inCone[fo] {
				inCone[fo] = true
				stack = append(stack, fo)
			}
		}
	}
	var frontier []netlist.SignalID
	for _, g := range e.c.Order {
		if !inCone[g] || e.good[g].Known() && e.flty[g].Known() {
			continue
		}
		for pin, f := range e.c.Signals[g].Fanin {
			gv, fv := e.good[f], e.flty[f]
			for _, in := range e.injs {
				if in.Gate == g && in.Pin == pin {
					fv = in.Value
				}
			}
			if gv.Known() && fv.Known() && gv != fv {
				frontier = append(frontier, g)
				break
			}
		}
	}
	return frontier
}

// checkImplication compares the engine's state with a from-scratch
// evaluation of both machines under the given input values.
//
// The one permitted difference is inherited from the event-driven
// engine: reset schedules only the fanout of inputs and constants, so an
// injection site whose fanins have never left X may not have been
// evaluated yet and still holds X in the faulty machine. The search
// depends on that behaviour (a site whose fanins are all X cannot be
// activated), so the reference follows the engine there and checks
// everything downstream against it.
func checkImplication(t *testing.T, e *Engine, inputs []logic.V, step string) {
	t.Helper()
	c := e.c
	good := sim.NewComb(c)
	good.ClearX()
	copy(good.Vals, inputs)
	good.Eval(nil)

	flty := make([]logic.V, len(c.Signals))
	copy(flty, inputs)
	stemAt := func(s netlist.SignalID) (logic.V, bool) {
		v, ok := logic.X, false
		for _, in := range e.injs {
			if in.IsStem() && in.Signal == s {
				v, ok = in.Value, true
			}
		}
		return v, ok
	}
	for _, in := range c.Inputs {
		if v, ok := stemAt(in); ok {
			flty[in] = v
		}
	}
	for _, g := range c.Order {
		s := &c.Signals[g]
		fin := make([]logic.V, len(s.Fanin))
		allX, site := true, false
		for pin, f := range s.Fanin {
			fin[pin] = flty[f]
			allX = allX && good.Vals[f] == logic.X && flty[f] == logic.X
		}
		for _, in := range e.injs {
			if in.Gate == g {
				fin[in.Pin] = in.Value
				site = true
			}
		}
		v := s.Op.Eval(fin)
		if sv, ok := stemAt(g); ok {
			v, site = sv, true
		}
		if site && allX && len(s.Fanin) > 0 && e.flty[g] == logic.X {
			v = logic.X
		}
		flty[g] = v
	}

	for id := range c.Signals {
		if e.good[id] != good.Vals[id] || e.flty[id] != flty[id] {
			t.Fatalf("%s: %s = %v/%v, reference %v/%v", step, c.NameOf(netlist.SignalID(id)),
				e.good[id], e.flty[id], good.Vals[id], flty[id])
		}
	}

	var wantD []netlist.SignalID
	observed := false
	for id := range c.Signals {
		s := netlist.SignalID(id)
		if e.hasD(s) {
			wantD = append(wantD, s)
			observed = observed || slices.Contains(c.Outputs, s)
		}
	}
	gotD := slices.Clone(e.dset)
	slices.Sort(gotD)
	if !slices.Equal(gotD, wantD) {
		t.Fatalf("%s: D-set %v, want %v", step, gotD, wantD)
	}
	for i, s := range e.dset {
		if e.dPos[s] != int32(i) {
			t.Fatalf("%s: dPos[%d] = %d, want %d", step, s, e.dPos[s], i)
		}
	}
	if e.observedD() != observed {
		t.Fatalf("%s: observedD = %v, want %v", step, e.observedD(), observed)
	}
	if got, want := slices.Clone(e.dFrontier()), oracleFrontier(e); !slices.Equal(got, want) {
		t.Fatalf("%s: D-frontier %v, want %v", step, got, want)
	}
}

// FuzzPodemImplication drives the engine's implication kernel through a
// sequence of decision-input assignments, flips and un-assignments (the
// moves PODEM makes) under stem, branch and multi-site injections, and
// after every drain checks values, the D-set and the D-frontier against
// from-scratch references.
//
// Input layout: circuit selector, circuit seed, site count, one byte per
// site choice, pin selector, then one byte per operation.
func FuzzPodemImplication(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 0, 4, 9, 1, 2, 8, 17, 5, 2, 2})
	f.Add([]byte{0, 0, 2, 40, 91, 7, 255, 0, 4, 8, 12, 16, 20, 1, 1, 2, 2, 2})
	f.Add([]byte{1, 7, 1, 11, 60, 0, 12, 1, 32, 5, 44, 9, 1, 2, 0})
	f.Add([]byte{2, 19, 2, 1, 2, 3, 1, 0, 4, 8, 12, 16, 20, 24, 28, 1, 2, 1, 2})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 48; i++ {
		b := make([]byte, 8+r.Intn(40))
		r.Read(b)
		f.Add(b)
	}
	s27, err := BuildCombModel(bench.MustS27())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		c := s27.C
		if sel := next(); sel%3 != 0 {
			c = randomComb(int64(next()))
		} else {
			next()
		}
		faults := fault.All(c)
		injs := make([]sim.Inject, 1+next()%3)
		for i := range injs {
			injs[i] = faults[next()%len(faults)].Inject()
		}
		var fixed map[netlist.SignalID]logic.V
		if p := next(); p%4 == 0 {
			fixed = map[netlist.SignalID]logic.V{c.Inputs[p/4%len(c.Inputs)]: logic.V(p / 16 % 2)}
		}
		m, err := NewModel(c, fixed)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(m)
		free := m.FreeInputs()
		inputs := make([]logic.V, len(c.Signals))
		for i := range inputs {
			inputs[i] = logic.X
		}
		for in, v := range fixed {
			inputs[in] = v
		}
		// Run a first fault, so the second load must clear its marks.
		e.loadFault([]sim.Inject{faults[len(faults)/2].Inject()})
		e.reset()
		e.loadFault(injs)
		e.reset()
		checkImplication(t, e, inputs, "reset")

		var stack []netlist.SignalID
		for op := 0; len(data) > 0 && op < 64; op++ {
			b := next()
			switch {
			case b%3 == 0 && len(stack) < len(free): // assign
				var pi netlist.SignalID
				for k := 0; ; k++ {
					pi = free[(b/3+k)%len(free)]
					if inputs[pi] == logic.X {
						break
					}
				}
				inputs[pi] = logic.V(b / 3 % 2)
				stack = append(stack, pi)
				e.assign(pi, inputs[pi])
			case b%3 == 1 && len(stack) > 0: // flip
				pi := stack[len(stack)-1]
				inputs[pi] = inputs[pi].Not()
				e.assign(pi, inputs[pi])
			case len(stack) > 0: // pop
				pi := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				inputs[pi] = logic.X
				e.assign(pi, logic.X)
			default:
				continue
			}
			e.drain()
			checkImplication(t, e, inputs, fmt.Sprintf("op %d", op))
		}
	})
}
