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

// buildStep2Vectors replicates the step-2 generation (without dropping)
// to get a deliberately redundant vector set.
func buildStep2Vectors(t *testing.T, d *scan.Design, hard []Screened) []scan.Vector {
	t.Helper()
	cm, err := atpg.BuildCombModel(d.C)
	if err != nil {
		t.Fatal(err)
	}
	fixed := map[netlist.SignalID]logic.V{}
	for k, v := range d.Assignments {
		fixed[k] = v
	}
	m, err := atpg.NewModel(cm.C, fixed)
	if err != nil {
		t.Fatal(err)
	}
	eng := atpg.NewEngine(m)
	var vectors []scan.Vector
	for _, s := range hard {
		res := eng.Generate(cm.MapFault(s.Fault), 1000)
		if res.Status != atpg.Found {
			continue
		}
		v := scan.Vector{FFs: map[netlist.SignalID]logic.V{}, PIs: map[netlist.SignalID]logic.V{}}
		for in, val := range res.Assignment {
			if d.C.IsFF(in) {
				v.FFs[in] = val
			} else {
				v.PIs[in] = val
			}
		}
		vectors = append(vectors, v)
	}
	return vectors
}

func TestCompactVectorsKeepsCoverage(t *testing.T) {
	d := genDesign(t, 220, 12, 1, 8)
	var hard []Screened
	screened, _ := ScreenCtx(context.Background(), d, fault.Collapsed(d.C), ScreenOptions{})
	for _, s := range screened {
		if s.Cat == Cat2 {
			hard = append(hard, s)
		}
	}
	if len(hard) < 4 {
		t.Skip("too few hard faults")
	}
	vectors := buildStep2Vectors(t, d, hard)
	// Duplicate the set to guarantee redundancy.
	vectors = append(vectors, vectors...)

	hf := make([]fault.Fault, len(hard))
	for i := range hard {
		hf[i] = hard[i].Fault
	}
	before, _ := faultsim.RunCtx(context.Background(), d.C, faultsim.Sequence(d.ConvertVectors(vectors)), hf, faultsim.Options{})

	res := CompactVectors(d, vectors, hf)
	if res.After > res.Before {
		t.Fatalf("compaction grew the set: %d -> %d", res.Before, res.After)
	}
	after, _ := faultsim.RunCtx(context.Background(), d.C, faultsim.Sequence(d.ConvertVectors(res.Vectors)), hf, faultsim.Options{})
	if after.NumDetected() < before.NumDetected() {
		t.Errorf("compaction lost coverage: %d -> %d", before.NumDetected(), after.NumDetected())
	}
	t.Logf("vectors %d -> %d, coverage %d/%d", res.Before, res.After, after.NumDetected(), len(hf))
	if res.After >= res.Before && res.Before > 4 {
		t.Error("doubled vector set not compacted at all")
	}
}

func TestCompactVectorsDegenerate(t *testing.T) {
	d := s27Design(t, 1)
	res := CompactVectors(d, nil, nil)
	if res.Before != 0 || res.After != 0 {
		t.Error("empty set mishandled")
	}
	one := []scan.Vector{{}}
	res = CompactVectors(d, one, fault.Collapsed(d.C)[:3])
	if res.After != 1 {
		t.Error("single vector dropped")
	}
}
