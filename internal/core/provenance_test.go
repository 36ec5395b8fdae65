package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
)

// flowJournal runs the full flow on the single-chain s27 design with a
// flight recorder attached and returns the design's fault list, the
// screening verdicts and the journal snapshot.
func flowJournal(t *testing.T) ([]fault.Fault, []Screened, []journal.Event) {
	t.Helper()
	d := s27Design(t, 1)
	col := obs.New()
	rec := journal.New(0)
	col.SetJournal(rec)
	faults := fault.Collapsed(d.C)
	scr, _ := ScreenCtx(context.Background(), d, faults, ScreenOptions{Workers: 1})
	if _, err := RunCtx(context.Background(), d, Params{Workers: 1, Obs: col}); err != nil {
		t.Fatal(err)
	}
	return faults, scr, rec.Snapshot()
}

// TestProvenanceGolden pins the -why rendering for the first
// category-2 fault of the s27 design: the category with its evidence
// (chain interval and implicating net), the ATPG attempts, and the
// detection. The format is a user-facing contract; it deliberately
// carries no timestamps so the output is identical across runs.
func TestProvenanceGolden(t *testing.T) {
	_, scr, events := flowJournal(t)
	var hard *Screened
	for i := range scr {
		if scr[i].Cat == Cat2 {
			hard = &scr[i]
			break
		}
	}
	if hard == nil {
		t.Fatal("s27 screening found no category-2 fault")
	}
	d := s27Design(t, 1)
	p := BuildProvenance(d.C, events, hard.Fault)
	got := p.Format()
	want := `fault scan_mode s-a-0
  category: hard
    chain 0 seg 0 via net mux0_f (hard)
    chain 0 seg 0 via net mux0_s (easy)
    chain 0 seg 1 via net tp0 (hard)
    chain 0 seg 2 via net mux1_f (hard)
    chain 0 seg 2 via net mux1_s (easy)
  atpg.comb: found (2 backtracks)
  detected: cycle 7 (step2)
`
	if got != want {
		t.Errorf("provenance golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestProvenanceUnmentionedFault: a fault the journal never saw gets
// the explicit empty explanation rather than fabricated evidence.
func TestProvenanceUnmentionedFault(t *testing.T) {
	d := s27Design(t, 1)
	f := fault.Collapsed(d.C)[0]
	p := BuildProvenance(d.C, nil, f)
	if p.Events != 0 {
		t.Errorf("events = %d, want 0", p.Events)
	}
	if p.DetectedCycle != -1 {
		t.Errorf("detected cycle = %d, want -1", p.DetectedCycle)
	}
	if !strings.Contains(p.Format(), "no journal events") {
		t.Errorf("format does not flag the empty journal:\n%s", p.Format())
	}
}

// TestProvenanceCategoriesAgree: for every fault, replaying the journal
// must reconstruct the same category screening computed.
func TestProvenanceCategoriesAgree(t *testing.T) {
	faults, scr, events := flowJournal(t)
	d := s27Design(t, 1)
	for i, f := range faults {
		p := BuildProvenance(d.C, events, f)
		if p.Category != scr[i].Cat.String() {
			t.Errorf("fault %s: journal category %s, screening %s",
				f.Describe(d.C), p.Category, scr[i].Cat)
		}
	}
}
