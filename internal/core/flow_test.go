package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
)

// TestParamsDefaults: the grouping distances follow the paper's
// Section 6 formulas of the longest chain, with their floors.
func TestParamsDefaults(t *testing.T) {
	if g := groupDistances(400); g != (distances{large: 240, med: 100, dist: 60}) {
		t.Errorf("distances for maxchain=400: %d/%d/%d", g.large, g.med, g.dist)
	}
	if g := groupDistances(10); g != (distances{large: 50, med: 25, dist: 20}) {
		t.Errorf("distance floors: %d/%d/%d", g.large, g.med, g.dist)
	}
}

func TestSpanHelpers(t *testing.T) {
	s := Screened{Locs: []Location{{0, 3}, {0, 9}, {1, 2}}}
	first, last, multi := s.Span()
	if first != (Location{0, 3}) || last != (Location{1, 2}) || !multi {
		t.Errorf("Span = %v %v %v", first, last, multi)
	}
	empty := Screened{}
	if _, _, m := empty.Span(); m {
		t.Error("empty Span claims multi-chain")
	}
}

func TestTryVectorFillsDeterministic(t *testing.T) {
	d := s27Design(t, 1)
	// A fault known detectable by loading: pick a chain path stem fault.
	p := d.Chains[0].Segment[1].Path[0]
	f := fault.Fault{Signal: p, Gate: netlist.None, Pin: -1, Stuck: logic.One}
	v := scanVector()
	a, err := tryVectorFills(nil, d, f, v, 4, Params{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tryVectorFills(nil, d, f, v, 4, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("tryVectorFills nondeterministic")
	}
}

func scanVector() (v scan.Vector) {
	v.FFs = map[netlist.SignalID]logic.V{}
	v.PIs = map[netlist.SignalID]logic.V{}
	return v
}

func TestReportAccessors(t *testing.T) {
	r := &Report{Easy: 3, Hard: 2, UndetectedFaults: make([]fault.Fault, 1)}
	if r.Affecting() != 5 || r.Undetected() != 1 {
		t.Error("report accessors wrong")
	}
}

func TestCategoryString(t *testing.T) {
	if Cat1.String() != "easy" || Cat2.String() != "hard" || Cat3.String() != "unaffecting" {
		t.Error("category strings wrong")
	}
}
