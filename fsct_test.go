package fsct

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// runExperiment reproduces one suite entry the way the examples do:
// generate the profile at scale, insert scan (chains 0 selects
// DefaultChains) and run the flow. On cancel the partial report comes
// back with the design.
func runExperiment(ctx context.Context, t *testing.T, p Profile, scale float64, chains int, seed int64) (*Report, *Design, error) {
	t.Helper()
	c := GenerateCircuit(p.Scale(scale), seed)
	if chains == 0 {
		chains = DefaultChains(len(c.FFs))
	}
	d, err := InsertScan(c, ScanOptions{NumChains: chains, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunFlowCtx(ctx, d, FlowParams{})
	return rep, d, err
}

func smallReport(t *testing.T, name string, chains int, seed int64) *Report {
	t.Helper()
	rep, _, err := runExperiment(context.Background(), t, MustProfile(name), 0.04, chains, seed)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSuiteHasTwelve(t *testing.T) {
	if len(Suite()) != 12 {
		t.Fatalf("suite has %d entries", len(Suite()))
	}
}

func TestMustProfilePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustProfile of unknown name did not panic")
		}
	}()
	MustProfile("s0")
}

func TestS27Embedded(t *testing.T) {
	c := S27()
	st := c.Stat()
	if st.Gates != 10 || st.FFs != 3 {
		t.Errorf("s27 stats %+v", st)
	}
}

func TestBenchRoundTripViaFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBench(&buf, S27()); err != nil {
		t.Fatal(err)
	}
	c, err := ParseBench(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if c.Stat() != S27().Stat() {
		t.Error("facade round trip changed the circuit")
	}
}

func TestDefaultChains(t *testing.T) {
	cases := []struct{ ffs, want int }{
		{10, 1}, {250, 1}, {251, 2}, {700, 2}, {701, 3}, {1200, 3}, {1201, 4}, {1500, 4}, {1501, 5},
	}
	for _, c := range cases {
		if got := DefaultChains(c.ffs); got != c.want {
			t.Errorf("DefaultChains(%d) = %d, want %d", c.ffs, got, c.want)
		}
	}
}

func TestExperimentRun(t *testing.T) {
	rep := smallReport(t, "s1423", 0, 1)
	if rep.Faults == 0 || rep.Affecting() == 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if rep.Undetected() > rep.Affecting()/5 {
		t.Errorf("undetected %d of %d affecting", rep.Undetected(), rep.Affecting())
	}
}

func TestTablesRender(t *testing.T) {
	reports := []*Report{
		smallReport(t, "s1423", 1, 1),
		smallReport(t, "s3330", 1, 1),
	}
	t1 := Table1(reports)
	if !strings.Contains(t1, "s1423") || !strings.Contains(t1, "total") {
		t.Errorf("Table1 output malformed:\n%s", t1)
	}
	t2 := Table2(reports)
	if !strings.Contains(t2, "#easy") || !strings.Contains(t2, "%") {
		t.Errorf("Table2 output malformed:\n%s", t2)
	}
	t3 := Table3(reports)
	if !strings.Contains(t3, "Headline") || !strings.Contains(t3, "undetected") {
		t.Errorf("Table3 output malformed:\n%s", t3)
	}
	for _, r := range reports {
		out := FormatReport(r)
		if !strings.Contains(out, r.Circuit) || !strings.Contains(out, "step 2") {
			t.Errorf("FormatReport malformed:\n%s", out)
		}
	}
}

func TestFigure5Render(t *testing.T) {
	rep := smallReport(t, "s13207", 0, 1)
	out := Figure5(rep)
	if !strings.Contains(out, "Figure 5") {
		t.Errorf("Figure5 output malformed:\n%s", out)
	}
	// Render with an empty profile too.
	empty := &Report{Circuit: "x"}
	if !strings.Contains(Figure5(empty), "no step-2 vectors") {
		t.Error("Figure5 on empty profile malformed")
	}
}

func TestScreenAndSimulateFacade(t *testing.T) {
	c := GenerateCircuit(MustProfile("s1423").Scale(0.1), 2)
	d, err := InsertScan(c, ScanOptions{NumChains: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	faults := CollapsedFaults(d.C)
	scr, _ := ScreenFaultsCtx(context.Background(), d, faults, ScreenOptions{})
	if len(scr) != len(faults) {
		t.Fatal("screening lost faults")
	}
	var easy []Fault
	for _, s := range scr {
		if s.Cat == CatEasy {
			easy = append(easy, s.Fault)
		}
	}
	if len(easy) == 0 {
		t.Fatal("no easy faults")
	}
	res, _ := SimulateFaultsCtx(context.Background(), d.C, Sequence(d.AlternatingSequence(8)), easy, SimOptions{})
	if res.NumDetected() == 0 {
		t.Error("alternating sequence detected nothing")
	}
}

// TestReproductionShape is the repository-level integration test: run a
// scaled-down version of the whole suite and assert the paper's shape
// results hold.
func TestReproductionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in -short mode")
	}
	var totalFaults, affecting, hard, undetected int
	for _, p := range Suite()[:6] { // the six smaller circuits keep this fast
		rep, _, err := runExperiment(context.Background(), t, p, 0.05, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		totalFaults += rep.Faults
		affecting += rep.Affecting()
		hard += rep.Hard
		undetected += rep.Undetected()
	}
	affectFrac := float64(affecting) / float64(totalFaults)
	hardFrac := float64(hard) / float64(totalFaults)
	undetFrac := float64(undetected) / float64(totalFaults)
	t.Logf("affecting=%.1f%% hard=%.1f%% undetected=%.3f%%",
		100*affectFrac, 100*hardFrac, 100*undetFrac)
	// Paper: 24.8% affecting, 3.2% hard, 0.006% undetected. Shape bands:
	if affectFrac < 0.05 || affectFrac > 0.5 {
		t.Errorf("affecting fraction %.3f out of band", affectFrac)
	}
	if hardFrac < 0.002 || hardFrac > 0.15 {
		t.Errorf("hard fraction %.3f out of band", hardFrac)
	}
	if undetFrac > 0.005 {
		t.Errorf("undetected fraction %.4f out of band", undetFrac)
	}
	if hard >= affecting {
		t.Error("hard faults should be a small subset of affecting faults")
	}
}
