package core

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
)

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults(400)
	if p.LargeDist != 240 || p.MedDist != 100 || p.Dist != 60 {
		t.Errorf("distance defaults for maxchain=400: %d/%d/%d", p.LargeDist, p.MedDist, p.Dist)
	}
	p = Params{}.withDefaults(10)
	if p.LargeDist != 50 || p.MedDist != 25 || p.Dist != 20 {
		t.Errorf("distance floors: %d/%d/%d", p.LargeDist, p.MedDist, p.Dist)
	}
	if p.CombBacktracks == 0 || p.SeqBacktracks == 0 || p.FinalBacktracks == 0 || p.MaxFrames == 0 {
		t.Error("effort defaults missing")
	}
	// Explicit values are preserved.
	q := Params{LargeDist: 7, Dist: 3}.withDefaults(400)
	if q.LargeDist != 7 || q.Dist != 3 {
		t.Error("explicit distances overridden")
	}
}

func TestSkipStep2RoutesEverythingToStep3(t *testing.T) {
	d := s27Design(t, 1)
	rep, err := RunCtx(context.Background(), d, Params{SkipStep2: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Step2.Detected != 0 || rep.Step2Vectors != 0 {
		t.Errorf("step 2 ran despite SkipStep2: %+v", rep.Step2)
	}
	s3 := rep.Step3.Detected + rep.Step3.Undetectable + rep.Step3.Undetected
	if s3 != rep.Hard+rep.EasyEscapes {
		t.Errorf("step 3 accounted %d, want %d", s3, rep.Hard+rep.EasyEscapes)
	}
}

func TestSimulateAlternatingOnHard(t *testing.T) {
	d := s27Design(t, 1)
	base, err := RunCtx(context.Background(), d, Params{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := RunCtx(context.Background(), d, Params{SimulateAlternatingOnHard: true})
	if err != nil {
		t.Fatal(err)
	}
	// Total coverage must not drop; the alternating-dropped faults are
	// credited to step 2.
	baseDet := base.Step2.Detected + base.Step3.Detected
	optDet := opt.Step2.Detected + opt.Step3.Detected
	if optDet < baseDet {
		t.Errorf("alternating-on-hard lowered detections: %d < %d", optDet, baseDet)
	}
	if opt.Undetected() > base.Undetected() {
		t.Errorf("alternating-on-hard raised undetected: %d > %d", opt.Undetected(), base.Undetected())
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
