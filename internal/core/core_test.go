package core

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/tpi"
)

func s27Design(t *testing.T, chains int) *scan.Design {
	t.Helper()
	d, err := tpi.Insert(bench.MustS27(), tpi.Options{NumChains: chains, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func genDesign(t *testing.T, gates, ffs, chains int, seed int64) *scan.Design {
	t.Helper()
	c := gen.Generate(gen.Profile{Name: "coret", PIs: 8, POs: 6, FFs: ffs, Gates: gates}, seed)
	d, err := tpi.Insert(c, tpi.Options{NumChains: chains, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestScreenBasicInvariants(t *testing.T) {
	d := s27Design(t, 1)
	faults := fault.Collapsed(d.C)
	scr, _ := ScreenCtx(context.Background(), d, faults, ScreenOptions{})
	if len(scr) != len(faults) {
		t.Fatalf("screened %d of %d", len(scr), len(faults))
	}
	counts := map[Category]int{}
	for _, s := range scr {
		counts[s.Cat]++
		if s.Cat != Cat3 && len(s.Locs) == 0 && !isFFDBranch(d, s.Fault) {
			t.Errorf("fault %s categorized %v without locations", s.Fault.Describe(d.C), s.Cat)
		}
		for i := 1; i < len(s.Locs); i++ {
			a, b := s.Locs[i-1], s.Locs[i]
			if b.Chain < a.Chain || (b.Chain == a.Chain && b.Seg <= a.Seg) {
				t.Errorf("locations not sorted/deduped: %v", s.Locs)
			}
		}
	}
	if counts[Cat1] == 0 {
		t.Error("no easy faults found — screening is broken")
	}
	if counts[Cat1]+counts[Cat2]+counts[Cat3] != len(faults) {
		t.Error("category counts do not add up")
	}
	t.Logf("easy=%d hard=%d unaffecting=%d", counts[Cat1], counts[Cat2], counts[Cat3])
}

func isFFDBranch(d *scan.Design, f fault.Fault) bool {
	return !f.IsStem() && d.C.IsFF(f.Gate)
}

// TestScreenChainStemIsCat1: a stuck fault directly on a chain path net
// must be category 1 (or 2 if it also unknowns a side input elsewhere).
func TestScreenChainStemIsCat1(t *testing.T) {
	d := s27Design(t, 1)
	ch := &d.Chains[0]
	pathNet := ch.Segment[0].Path[0]
	faults := []fault.Fault{
		{Signal: pathNet, Gate: netlist.None, Pin: -1, Stuck: logic.Zero},
		{Signal: pathNet, Gate: netlist.None, Pin: -1, Stuck: logic.One},
	}
	screened, _ := ScreenCtx(context.Background(), d, faults, ScreenOptions{})
	for _, s := range screened {
		if s.Cat == Cat3 {
			t.Errorf("on-path fault %s screened as unaffecting", s.Fault.Describe(d.C))
		}
	}
}

// TestScreenScanModeStuckAt0: scan_mode s-a-0 disconnects every inserted
// link — it must affect the chain.
func TestScreenScanModeStuckAt0(t *testing.T) {
	d := s27Design(t, 1)
	f := fault.Fault{Signal: d.ScanModePI, Gate: netlist.None, Pin: -1, Stuck: logic.Zero}
	scr, _ := ScreenCtx(context.Background(), d, []fault.Fault{f}, ScreenOptions{})
	if scr[0].Cat == Cat3 {
		t.Error("scan_mode s-a-0 screened as unaffecting")
	}
}

// TestScreenCat1DetectedByAlternating is the paper's core claim for
// category 1: the alternating sequence detects these faults.
func TestScreenCat1DetectedByAlternating(t *testing.T) {
	for _, chains := range []int{1, 2} {
		d := s27Design(t, chains)
		scr, _ := ScreenCtx(context.Background(), d, fault.Collapsed(d.C), ScreenOptions{})
		var cat1 []fault.Fault
		for _, s := range scr {
			if s.Cat == Cat1 {
				cat1 = append(cat1, s.Fault)
			}
		}
		alt := faultsim.Sequence(d.AlternatingSequence(8))
		res, _ := faultsim.RunCtx(context.Background(), d.C, alt, cat1, faultsim.Options{})
		missed := len(res.Undetected())
		if float64(missed) > 0.1*float64(len(cat1)) {
			t.Errorf("chains=%d: alternating sequence missed %d of %d category-1 faults",
				chains, missed, len(cat1))
		}
	}
}

// TestScreenCat3Unaffecting: category-3 faults must not change the scan
// chain behaviour — shifting a pattern through the faulty chain gives
// the same scan-out trace as the fault-free chain.
func TestScreenCat3Unaffecting(t *testing.T) {
	d := s27Design(t, 1)
	scr, _ := ScreenCtx(context.Background(), d, fault.Collapsed(d.C), ScreenOptions{})
	var cat3 []fault.Fault
	for _, s := range scr {
		if s.Cat == Cat3 {
			cat3 = append(cat3, s.Fault)
		}
	}
	if len(cat3) == 0 {
		t.Skip("no category-3 faults")
	}
	// Observe ONLY the scan-out: build sequences and compare the scan-out
	// PO lane-by-lane. Category 3 faults may still hit mission POs, so
	// detection at other POs is fine; the chain itself must shift clean.
	alt := d.AlternatingSequence(8)
	soIdx := -1
	for i, o := range d.C.Outputs {
		if o == d.Chains[0].ScanOut() {
			soIdx = i
		}
	}
	if soIdx < 0 {
		t.Fatal("no scan-out PO")
	}
	// Simulate good and faulty machines, compare the scan-out only.
	good := traceOutput(d, alt, nil, soIdx)
	for _, f := range cat3 {
		inj := f.Inject()
		bad := traceOutput(d, alt, &inj, soIdx)
		for cyc := range good {
			if good[cyc].Known() && bad[cyc].Known() && good[cyc] != bad[cyc] {
				t.Errorf("category-3 fault %s corrupts scan-out at cycle %d",
					f.Describe(d.C), cyc)
				break
			}
		}
	}
}

func traceOutput(d *scan.Design, seq [][]logic.V, inj *sim.Inject, outIdx int) []logic.V {
	s := sim.NewSeq(d.C)
	var out []logic.V
	var po []logic.V
	for _, pi := range seq {
		po = s.Cycle(pi, inj, po)
		out = append(out, po[outIdx])
	}
	return out
}

// TestRunS27 executes the whole flow on s27 and checks the headline
// shape: every chain-affecting fault ends up detected or proven
// undetectable, with at most a tiny residue.
func TestRunS27(t *testing.T) {
	for _, chains := range []int{1, 2} {
		d := s27Design(t, chains)
		rep, err := RunCtx(context.Background(), d, Params{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("chains=%d: faults=%d easy=%d hard=%d s2=%+v s3=%+v undetected=%d",
			chains, rep.Faults, rep.Easy, rep.Hard, rep.Step2, rep.Step3, rep.Undetected())
		if rep.Easy == 0 {
			t.Error("no easy faults")
		}
		accounted := rep.Step2.Detected + rep.Step2.Undetectable + rep.Step2.Undetected
		if rep.Hard+rep.EasyEscapes != accounted {
			t.Errorf("step-2 accounting: hard=%d escapes=%d but accounted=%d",
				rep.Hard, rep.EasyEscapes, accounted)
		}
		s3total := rep.Step3.Detected + rep.Step3.Undetectable + rep.Step3.Undetected
		if s3total != rep.Step2.Undetected {
			t.Errorf("step-3 accounting: %d != step-2 undetected %d", s3total, rep.Step2.Undetected)
		}
		if frac := float64(rep.Undetected()) / float64(rep.Faults); frac > 0.02 {
			t.Errorf("undetected fraction %.4f too high", frac)
		}
	}
}

// TestRunGenerated runs the flow end to end on a generated circuit with
// multiple chains.
func TestRunGenerated(t *testing.T) {
	d := genDesign(t, 250, 14, 2, 5)
	rep, err := RunCtx(context.Background(), d, Params{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("faults=%d affecting=%d (%.1f%%) hard=%d (%.1f%%) undetected=%d",
		rep.Faults, rep.Affecting(), 100*float64(rep.Affecting())/float64(rep.Faults),
		rep.Hard, 100*float64(rep.Hard)/float64(rep.Faults), rep.Undetected())
	if rep.Affecting() == 0 {
		t.Fatal("no faults affect the chain")
	}
	if rep.Undetected() > rep.Affecting()/10 {
		t.Errorf("undetected %d of %d affecting — flow not effective", rep.Undetected(), rep.Affecting())
	}
	if len(rep.Profile) > 1 {
		for i := 1; i < len(rep.Profile); i++ {
			if rep.Profile[i] < rep.Profile[i-1] {
				t.Error("profile not monotone")
			}
		}
	}
}

// TestUndetectableClaimsSound: on s27, every fault the flow reports as
// undetectable must resist a long random scan-mode sequence.
func TestUndetectableClaimsSound(t *testing.T) {
	d := s27Design(t, 1)
	faults := fault.Collapsed(d.C)
	scr, _ := ScreenCtx(context.Background(), d, faults, ScreenOptions{})
	var hard []fault.Fault
	for _, s := range scr {
		if s.Cat == Cat2 {
			hard = append(hard, s.Fault)
		}
	}
	rep, err := RunCtx(context.Background(), d, Params{})
	if err != nil {
		t.Fatal(err)
	}
	undetectable := rep.Step2.Undetectable + rep.Step3.Undetectable
	if undetectable == 0 {
		t.Skip("no undetectable faults on this design")
	}
	// Random-sequence cross-check on all hard faults: any fault detected
	// by random vectors is clearly not undetectable; the flow must have
	// detected it too.
	seq := randomScanSequence(d, 600, 99)
	res, _ := faultsim.RunCtx(context.Background(), d.C, seq, hard, faultsim.Options{})
	detectedByRandom := res.NumDetected()
	flowDetected := rep.Step2.Detected + rep.Step3.Detected
	if flowDetected < detectedByRandom {
		t.Errorf("flow detected %d hard faults but random found %d", flowDetected, detectedByRandom)
	}
}

func randomScanSequence(d *scan.Design, cycles int, seed int64) faultsim.Sequence {
	rnd := uint64(seed)
	next := func() logic.V {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return logic.V((rnd >> 33) % 2)
	}
	seq := make(faultsim.Sequence, cycles)
	for t := range seq {
		pi := d.BaselinePI()
		for i, in := range d.C.Inputs {
			if _, pinned := d.Assignments[in]; !pinned {
				pi[i] = next()
			}
		}
		seq[t] = pi
	}
	return seq
}
