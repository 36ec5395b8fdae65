package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
)

// TestRunWithCollector pins the observability contract of the full flow:
// an enabled collector yields a Report.Metrics snapshot with all four
// phases, the per-category screening counters, ATPG statistics and
// worker-pool records — and the instrumented run produces the exact same
// functional Report as an uninstrumented one.
func TestRunWithCollector(t *testing.T) {
	d := s27Design(t, 1)

	plain, err := RunCtx(context.Background(), d, Params{})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	// A fresh artifact cache so the compiles happen under this
	// collector (the shared default cache may already hold s27).
	rep, err := RunCtx(context.Background(), d, Params{Obs: col, Engine: engine.New()})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Metrics == nil {
		t.Fatal("Report.Metrics nil despite enabled collector")
	}
	m := rep.Metrics
	phases := map[string]bool{}
	for _, p := range m.Phases {
		phases[p.Name] = true
		if p.WallNS < 0 {
			t.Errorf("phase %s has negative wall time", p.Name)
		}
	}
	for _, want := range []string{"screen", "step1.alternating", "step2", "step3"} {
		if !phases[want] {
			t.Errorf("phase %q missing from metrics (got %v)", want, m.Phases)
		}
	}

	if got := m.Counters["screen.faults"]; got != int64(rep.Faults) {
		t.Errorf("screen.faults = %d, want %d", got, rep.Faults)
	}
	if got := m.Counters["screen.easy"]; got != int64(rep.Easy) {
		t.Errorf("screen.easy = %d, want %d", got, rep.Easy)
	}
	if got := m.Counters["screen.hard"]; got != int64(rep.Hard) {
		t.Errorf("screen.hard = %d, want %d", got, rep.Hard)
	}
	if got := m.Counters["step1.confirmed"]; got != int64(rep.EasyConfirmed) {
		t.Errorf("step1.confirmed = %d, want %d", got, rep.EasyConfirmed)
	}
	if m.Counters["faultsim.runs"] == 0 {
		t.Error("faultsim.runs not counted")
	}
	if m.Counters["sim.compile.count"] == 0 {
		t.Error("sim.compile.count not counted")
	}
	if m.Counters["atpg.comb.generated"] == 0 {
		t.Error("atpg.comb.generated not counted")
	}
	if _, ok := m.Pools["screen"]; !ok {
		t.Error("screen pool record missing")
	}
	if _, ok := m.Pools["faultsim"]; !ok {
		t.Error("faultsim pool record missing")
	}

	// Functional output must be untouched by instrumentation (CPU
	// fields are wall times and naturally differ).
	sameStep := func(a, b StepStats) bool {
		return a.Detected == b.Detected && a.Undetectable == b.Undetectable && a.Undetected == b.Undetected
	}
	if rep.Easy != plain.Easy || rep.Hard != plain.Hard ||
		!sameStep(rep.Step2, plain.Step2) || !sameStep(rep.Step3, plain.Step3) ||
		rep.Undetected() != plain.Undetected() {
		t.Errorf("instrumented run changed the report: %+v vs %+v", rep, plain)
	}
}

// TestScreenOptNilCollector pins that a nil ScreenOptions.Obs keeps
// screening on the plain par.DoCtx path with identical verdicts.
func TestScreenOptNilCollector(t *testing.T) {
	d := s27Design(t, 1)
	faults := fault.Collapsed(d.C)
	a, _ := ScreenCtx(context.Background(), d, faults, ScreenOptions{Workers: 2})
	col := obs.New()
	b, _ := ScreenCtx(context.Background(), d, faults, ScreenOptions{Workers: 2, Obs: col})
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i].Cat != b[i].Cat {
			t.Fatalf("fault %d: cat %v vs %v", i, a[i].Cat, b[i].Cat)
		}
	}
	m := col.Snapshot()
	if m.Counters["screen.faults"] != int64(len(faults)) {
		t.Errorf("screen.faults = %d, want %d", m.Counters["screen.faults"], len(faults))
	}
	if m.Counters["screen.easy"]+m.Counters["screen.hard"]+m.Counters["screen.unaffecting"] != int64(len(faults)) {
		t.Error("screen category counters do not sum to total")
	}
}
