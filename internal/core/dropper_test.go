package core

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
)

// TestDropperMatchesGroundTruth: the dropper's covered-set after one
// vector must equal a one-cycle fault simulation of the combinational
// model under the same input fill.
func TestDropperMatchesGroundTruth(t *testing.T) {
	d := s27Design(t, 1)
	faults := fault.Collapsed(d.C)
	screened, _ := ScreenCtx(context.Background(), d, faults, ScreenOptions{})
	var hard []Screened
	for _, s := range screened {
		if s.Cat == Cat2 {
			hard = append(hard, s)
		}
	}
	if len(hard) == 0 {
		t.Skip("no hard faults")
	}
	cm, err := atpg.BuildCombModel(d.C)
	if err != nil {
		t.Fatal(err)
	}
	cd := newCombDropper(d, cm, hard, 0, nil, nil)

	// A fully-specified vector: all FFs 1, all free PIs 1.
	vec := scan.Vector{
		FFs: map[netlist.SignalID]logic.V{},
		PIs: map[netlist.SignalID]logic.V{},
	}
	for _, ff := range d.C.FFs {
		vec.FFs[ff] = logic.One
	}
	for _, in := range d.C.Inputs {
		if _, pinned := d.Assignments[in]; !pinned {
			vec.PIs[in] = logic.One
		}
	}
	cd.drop(vec)

	// Ground truth: single-cycle fault sim of the comb model with the
	// same values (assignments pinned, everything else 1 except
	// scan-ins, which the dropper fills with the vector's don't-care
	// default of... the vector assigned 1 to free PIs and FFs only, so
	// scan-ins stay 0 per the baseline fill).
	pi := make([]logic.V, len(cm.C.Inputs))
	for i, in := range cm.C.Inputs {
		if av, ok := d.Assignments[in]; ok {
			pi[i] = av
		} else if v, ok := vec.FFs[in]; ok {
			pi[i] = v
		} else if v, ok := vec.PIs[in]; ok {
			pi[i] = v
		} else {
			pi[i] = logic.Zero
		}
	}
	mf := make([]fault.Fault, len(hard))
	for i := range hard {
		mf[i] = cm.MapFault(hard[i].Fault)
	}
	res, _ := faultsim.RunCtx(context.Background(), cm.C, faultsim.Sequence{pi}, mf, faultsim.Options{})
	for i := range hard {
		want := res.DetectedAt[i] >= 0
		if cd.covered.Get(i) != want {
			t.Errorf("fault %s: dropper=%v ground truth=%v",
				hard[i].Fault.Describe(d.C), cd.covered.Get(i), want)
		}
		if cd.covered.Get(i) && cd.coveredAt[i] != 0 {
			t.Errorf("coveredAt = %d, want 0", cd.coveredAt[i])
		}
	}
}
