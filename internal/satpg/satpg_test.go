package satpg

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/tpi"
)

// detects replays an assignment on the combinational circuit and checks
// a definite output difference under the fault.
func detects(c *netlist.Circuit, fixed, asn map[netlist.SignalID]logic.V, f fault.Fault) bool {
	run := func(inj *sim.Inject) []logic.V {
		e := sim.NewComb(c)
		e.ClearX()
		for _, in := range c.Inputs {
			if v, ok := fixed[in]; ok {
				e.Vals[in] = v
			} else if v, ok := asn[in]; ok {
				e.Vals[in] = v
			}
		}
		e.Eval(inj)
		return e.Outputs(nil)
	}
	good := run(nil)
	inj := f.Inject()
	bad := run(&inj)
	for i := range good {
		if good[i].Known() && bad[i].Known() && good[i] != bad[i] {
			return true
		}
	}
	return false
}

// TestSatAgreesWithPodem is the cross-validation property: on every
// collapsed fault of several models, the SAT engine and PODEM must
// reach the same testable/redundant verdict, and every SAT vector must
// detect its fault in simulation.
func TestSatAgreesWithPodem(t *testing.T) {
	models := []*atpg.Model{}

	// c17.
	c17src := `
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
	c17, err := bench.ParseString(c17src, "c17")
	if err != nil {
		t.Fatal(err)
	}
	m17, _ := atpg.NewModel(c17, nil)
	models = append(models, m17)

	// Redundant logic.
	redSrc := `
INPUT(a)
INPUT(b)
OUTPUT(z)
na = NOT(a)
y = OR(a, na)
z = AND(y, b)
`
	red, err := bench.ParseString(redSrc, "red")
	if err != nil {
		t.Fatal(err)
	}
	mred, _ := atpg.NewModel(red, nil)
	models = append(models, mred)

	// s27 scan-mode comb model (with TPI pins).
	d, err := tpi.Insert(bench.MustS27(), tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := atpg.BuildCombModel(d.C)
	if err != nil {
		t.Fatal(err)
	}
	fixed := map[netlist.SignalID]logic.V{}
	for k, v := range d.Assignments {
		fixed[k] = v
	}
	ms27, _ := atpg.NewModel(cm.C, fixed)
	models = append(models, ms27)

	for _, m := range models {
		eng := atpg.NewEngine(m)
		for _, f := range fault.Collapsed(m.C) {
			p, _ := eng.GenerateCtx(context.Background(), f, 100000)
			s, err := Generate(m, f, 200000)
			if err != nil {
				t.Fatal(err)
			}
			if p.Status == atpg.Aborted || s.Status == atpg.Aborted {
				continue // no verdict to compare
			}
			if p.Status != s.Status {
				t.Errorf("%s: fault %s: PODEM=%v SAT=%v",
					m.C.Name, f.Describe(m.C), p.Status, s.Status)
				continue
			}
			if s.Status == atpg.Found && !detects(m.C, m.Fixed, s.Assignment, f) {
				t.Errorf("%s: SAT vector for %s does not detect it", m.C.Name, f.Describe(m.C))
			}
		}
	}
}

// TestSatOnGeneratedCircuit runs the agreement check on a generated
// full-scan comb model with pinned inputs.
func TestSatOnGeneratedCircuit(t *testing.T) {
	c := gen.Generate(gen.Profile{Name: "satg", PIs: 6, POs: 5, FFs: 8, Gates: 110}, 3)
	d, err := tpi.Insert(c, tpi.Options{NumChains: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := atpg.BuildCombModel(d.C)
	if err != nil {
		t.Fatal(err)
	}
	fixed := map[netlist.SignalID]logic.V{}
	for k, v := range d.Assignments {
		fixed[k] = v
	}
	m, _ := atpg.NewModel(cm.C, fixed)
	eng := atpg.NewEngine(m)
	faults := fault.Collapsed(m.C)
	if len(faults) > 150 {
		faults = faults[:150]
	}
	agree := 0
	for _, f := range faults {
		p, _ := eng.GenerateCtx(context.Background(), f, 50000)
		s, err := Generate(m, f, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if p.Status == atpg.Aborted || s.Status == atpg.Aborted {
			continue
		}
		if p.Status != s.Status {
			t.Errorf("fault %s: PODEM=%v SAT=%v", f.Describe(m.C), p.Status, s.Status)
		} else {
			agree++
		}
	}
	if agree == 0 {
		t.Fatal("no verdicts compared")
	}
	t.Logf("%d verdicts agree", agree)
}

func TestSatRejectsXPinned(t *testing.T) {
	c, _ := bench.ParseString("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "x")
	b, _ := c.Lookup("b")
	m, _ := atpg.NewModel(c, map[netlist.SignalID]logic.V{b: logic.X})
	y, _ := c.Lookup("y")
	if _, err := Generate(m, fault.Fault{Signal: y, Gate: netlist.None, Pin: -1, Stuck: logic.One}, 100); err == nil {
		t.Error("X-pinned model accepted")
	}
}
