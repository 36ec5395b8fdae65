package atpg

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// detects checks by scalar simulation whether the (possibly partial)
// assignment detects f on combinational circuit c with fixed inputs.
func detects(c *netlist.Circuit, fixed, asn map[netlist.SignalID]logic.V, f fault.Fault) bool {
	e := sim.NewComb(c)
	e.ClearX()
	for _, in := range c.Inputs {
		if v, ok := fixed[in]; ok {
			e.Vals[in] = v
		} else if v, ok := asn[in]; ok {
			e.Vals[in] = v
		}
	}
	e.Eval(nil)
	good := e.Outputs(nil)
	ef := sim.NewComb(c)
	copy(ef.Vals, e.Vals)
	for _, in := range c.Inputs {
		if v, ok := fixed[in]; ok {
			ef.Vals[in] = v
		} else if v, ok := asn[in]; ok {
			ef.Vals[in] = v
		} else {
			ef.Vals[in] = logic.X
		}
	}
	inj := f.Inject()
	ef.Eval(&inj)
	bad := ef.Outputs(nil)
	for i := range good {
		if good[i].Known() && bad[i].Known() && good[i] != bad[i] {
			return true
		}
	}
	return false
}

// exhaustivelyTestable enumerates all assignments of the free inputs and
// reports whether any detects f (ground truth for redundancy claims).
func exhaustivelyTestable(c *netlist.Circuit, fixed map[netlist.SignalID]logic.V, f fault.Fault) bool {
	var free []netlist.SignalID
	for _, in := range c.Inputs {
		if _, ok := fixed[in]; !ok {
			free = append(free, in)
		}
	}
	if len(free) > 20 {
		panic("too many inputs for exhaustive check")
	}
	asn := map[netlist.SignalID]logic.V{}
	for mask := 0; mask < 1<<len(free); mask++ {
		for i, in := range free {
			asn[in] = logic.FromBool(mask&(1<<i) != 0)
		}
		if detects(c, fixed, asn, f) {
			return true
		}
	}
	return false
}

// checkAllFaults runs PODEM on every collapsed fault of the circuit and
// validates each verdict against simulation / exhaustive ground truth.
func checkAllFaults(t *testing.T, c *netlist.Circuit, fixed map[netlist.SignalID]logic.V) (found, redundant int) {
	t.Helper()
	m, err := NewModel(c, fixed)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m)
	for _, f := range fault.Collapsed(c) {
		res, _ := e.GenerateCtx(context.Background(), f, 10000)
		switch res.Status {
		case Found:
			found++
			if !detects(c, fixed, res.Assignment, f) {
				t.Errorf("PODEM vector for %s does not detect it (asn %v)", f.Describe(c), res.Assignment)
			}
		case Redundant:
			redundant++
			if exhaustivelyTestable(c, fixed, f) {
				t.Errorf("PODEM claims %s redundant but a test exists", f.Describe(c))
			}
		case Aborted:
			t.Errorf("PODEM aborted on %s in tiny circuit", f.Describe(c))
		}
	}
	return found, redundant
}

func TestPodemC17(t *testing.T) {
	// The classic c17 netlist: all faults testable.
	src := `
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`
	c, err := bench.ParseString(src, "c17")
	if err != nil {
		t.Fatal(err)
	}
	found, redundant := checkAllFaults(t, c, nil)
	if redundant != 0 {
		t.Errorf("c17 has no redundant faults, PODEM found %d", redundant)
	}
	if found == 0 {
		t.Error("no tests generated")
	}
}

func TestPodemRedundantCircuit(t *testing.T) {
	// y = OR(a, NOT(a)) is constant 1: y s-a-1 is undetectable, and so is
	// everything that only matters through y's value being 1.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
na = NOT(a)
y = OR(a, na)
z = AND(y, b)
`
	c, err := bench.ParseString(src, "red")
	if err != nil {
		t.Fatal(err)
	}
	found, redundant := checkAllFaults(t, c, nil)
	if redundant == 0 {
		t.Error("redundant circuit yielded no redundant verdicts")
	}
	if found == 0 {
		t.Error("no tests generated")
	}
	// Specifically y s-a-1 must be redundant.
	y, _ := c.Lookup("y")
	m, _ := NewModel(c, nil)
	e := NewEngine(m)
	res, _ := e.GenerateCtx(context.Background(), fault.Fault{Signal: y, Gate: netlist.None, Pin: -1, Stuck: logic.One}, 10000)
	if res.Status != Redundant {
		t.Errorf("y s-a-1 verdict = %v", res.Status)
	}
}

func TestPodemWithFixedInputs(t *testing.T) {
	// Fixing b=0 makes z = AND(a, b) constant 0: a-side faults become
	// untestable under the constraint while b s-a-1 becomes testable
	// only through... actually z s-a-0 is undetectable.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
`
	c, err := bench.ParseString(src, "fix")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := c.Lookup("b")
	z, _ := c.Lookup("z")
	a, _ := c.Lookup("a")
	fixed := map[netlist.SignalID]logic.V{b: logic.Zero}
	m, _ := NewModel(c, fixed)
	e := NewEngine(m)

	// z s-a-0: good z is always 0 under b=0 -> redundant.
	res, _ := e.GenerateCtx(context.Background(), fault.Fault{Signal: z, Gate: netlist.None, Pin: -1, Stuck: logic.Zero}, 1000)
	if res.Status != Redundant {
		t.Errorf("z s-a-0 with b fixed 0: %v, want redundant", res.Status)
	}
	// z s-a-1: good z = 0 always, faulty 1 -> detectable with any input.
	res, _ = e.GenerateCtx(context.Background(), fault.Fault{Signal: z, Gate: netlist.None, Pin: -1, Stuck: logic.One}, 1000)
	if res.Status != Found {
		t.Errorf("z s-a-1 with b fixed 0: %v, want found", res.Status)
	}
	// b s-a-1: activated by the fixed 0; needs a=1 to propagate.
	res, _ = e.GenerateCtx(context.Background(), fault.Fault{Signal: b, Gate: netlist.None, Pin: -1, Stuck: logic.One}, 1000)
	if res.Status != Found {
		t.Errorf("b s-a-1 with b fixed 0: %v, want found", res.Status)
	}
	if res.Assignment[a] != logic.One {
		t.Errorf("b s-a-1 test assigns a=%v, want 1", res.Assignment[a])
	}
	// a s-a-0: can never propagate through b=0 -> redundant.
	res, _ = e.GenerateCtx(context.Background(), fault.Fault{Signal: a, Gate: netlist.None, Pin: -1, Stuck: logic.Zero}, 1000)
	if res.Status != Redundant {
		t.Errorf("a s-a-0 with b fixed 0: %v, want redundant", res.Status)
	}
}

func TestPodemBranchFault(t *testing.T) {
	// Reconvergent fanout: stem testable both ways, branches
	// individually targetable.
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
OUTPUT(z)
y = AND(a, b)
z = OR(a, c)
`
	cc, err := bench.ParseString(src, "br")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := cc.Lookup("a")
	yg, _ := cc.Lookup("y")
	m, _ := NewModel(cc, nil)
	e := NewEngine(m)
	f := fault.Fault{Signal: a, Gate: yg, Pin: 0, Stuck: logic.Zero}
	res, _ := e.GenerateCtx(context.Background(), f, 1000)
	if res.Status != Found {
		t.Fatalf("branch fault not found: %v", res.Status)
	}
	if !detects(cc, nil, res.Assignment, f) {
		t.Error("branch fault vector does not detect")
	}
}

func TestPodemOnS27CombModel(t *testing.T) {
	orig := bench.MustS27()
	cm, err := BuildCombModel(orig)
	if err != nil {
		t.Fatal(err)
	}
	// All collapsed faults of the original circuit, mapped to the model.
	m, _ := NewModel(cm.C, nil)
	e := NewEngine(m)
	found, redundant, aborted := 0, 0, 0
	for _, f0 := range fault.Collapsed(orig) {
		f := cm.MapFault(f0)
		res, _ := e.GenerateCtx(context.Background(), f, 10000)
		switch res.Status {
		case Found:
			found++
			if !detects(cm.C, nil, res.Assignment, f) {
				t.Errorf("vector for %s fails simulation", f.Describe(cm.C))
			}
		case Redundant:
			redundant++
			if exhaustivelyTestable(cm.C, nil, f) {
				t.Errorf("false redundancy claim for %s", f.Describe(cm.C))
			}
		case Aborted:
			aborted++
		}
	}
	// s27's full-scan model is fully testable.
	if redundant != 0 || aborted != 0 {
		t.Errorf("s27 comb model: found=%d redundant=%d aborted=%d", found, redundant, aborted)
	}
}

func TestCombModelShape(t *testing.T) {
	orig := bench.MustS27()
	cm, err := BuildCombModel(orig)
	if err != nil {
		t.Fatal(err)
	}
	st := cm.C.Stat()
	if st.FFs != 0 {
		t.Error("comb model still has FFs")
	}
	if st.Inputs != 4+3 {
		t.Errorf("model inputs = %d, want 7", st.Inputs)
	}
	if st.Outputs != 1+3 {
		t.Errorf("model outputs = %d, want 4", st.Outputs)
	}
	// Signal IDs preserved.
	for id := netlist.SignalID(0); int(id) < len(orig.Signals); id++ {
		if orig.NameOf(id) != cm.C.NameOf(id) {
			t.Fatalf("signal %d renamed: %s vs %s", id, orig.NameOf(id), cm.C.NameOf(id))
		}
	}
}

func TestMapFaultFFBranch(t *testing.T) {
	orig := bench.MustS27()
	cm, _ := BuildCombModel(orig)
	g10, _ := orig.Lookup("G10")
	g5, _ := orig.Lookup("G5") // G5 = DFF(G10)
	f := fault.Fault{Signal: g10, Gate: g5, Pin: 0, Stuck: logic.One}
	mf := cm.MapFault(f)
	if mf.Gate != cm.DBuf[g5] || mf.Signal != g10 {
		t.Errorf("FF branch fault mapped to %+v", mf)
	}
	stem := fault.Fault{Signal: g10, Gate: netlist.None, Pin: -1, Stuck: logic.One}
	if cm.MapFault(stem) != stem {
		t.Error("stem fault changed by mapping")
	}
}

func TestModelRejectsSequential(t *testing.T) {
	if _, err := NewModel(bench.MustS27(), nil); err == nil {
		t.Error("NewModel accepted a sequential circuit")
	}
}

func TestFreeInputs(t *testing.T) {
	c, _ := bench.ParseString("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "f")
	b, _ := c.Lookup("b")
	m, _ := NewModel(c, map[netlist.SignalID]logic.V{b: logic.One})
	free := m.FreeInputs()
	if len(free) != 1 || c.NameOf(free[0]) != "a" {
		t.Errorf("free inputs = %v", free)
	}
}

// TestPodemConstantGate: a zero-fanin constant gate has no fanin event
// to schedule it, so reset must seed it; otherwise it stays X, backtrace
// refuses it, and testable faults come out "redundant".
func TestPodemConstantGate(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(g)
k = CONST1()
g = AND(a, k)
`
	c, err := bench.ParseString(src, "const")
	if err != nil {
		t.Fatal(err)
	}
	checkAllFaults(t, c, nil)
	m, _ := NewModel(c, nil)
	e := NewEngine(m)
	for _, f := range fault.Collapsed(c) {
		res, _ := e.GenerateCtx(context.Background(), f, 1000)
		t.Logf("%s: %v", f.Describe(c), res.Status)
		if res.Status != Found && exhaustivelyTestable(c, nil, f) {
			t.Errorf("%s: %v, want found", f.Describe(c), res.Status)
		}
	}
	for _, name := range []string{"a", "k", "g"} {
		s, _ := c.Lookup(name)
		for _, v := range []logic.V{logic.Zero, logic.One} {
			f := fault.Fault{Signal: s, Gate: netlist.None, Pin: -1, Stuck: v}
			res, _ := e.GenerateCtx(context.Background(), f, 1000)
			want := Found
			if name == "k" && v == logic.One {
				want = Redundant // k is 1 in both machines
			}
			if res.Status != want {
				t.Errorf("%s: %v, want %v", f.Describe(c), res.Status, want)
			}
		}
	}
}
