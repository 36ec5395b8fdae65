package seqatpg

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/tpi"
)

func TestUnrollShape(t *testing.T) {
	d, err := tpi.Insert(bench.MustS27(), tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(d, nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	uc := m.Circuit()
	if len(uc.FFs) != 0 {
		t.Error("unrolled circuit has flip-flops")
	}
	// Inputs: per frame all PIs; FFs appear as inputs only at frame 0.
	wantInputs := 3*len(d.C.Inputs) + len(d.C.FFs)
	if got := len(uc.Inputs); got != wantInputs {
		t.Errorf("unrolled inputs = %d, want %d", got, wantInputs)
	}
	// Outputs: per frame all POs (no observable FFs configured).
	if got := len(uc.Outputs); got != 3*len(d.C.Outputs) {
		t.Errorf("unrolled outputs = %d, want %d", got, 3*len(d.C.Outputs))
	}
}

func TestUnrollWithCtrlObs(t *testing.T) {
	d, err := tpi.Insert(bench.MustS27(), tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := map[netlist.SignalID]bool{d.Chains[0].FFs[0]: true}
	obs := map[netlist.SignalID]bool{d.Chains[0].FFs[2]: true}
	m, err := Build(d, ctrl, obs, 2)
	if err != nil {
		t.Fatal(err)
	}
	uc := m.Circuit()
	// Controllable FF contributes an input per frame; the two normal FFs
	// contribute one frame-0 input each.
	wantInputs := 2*len(d.C.Inputs) + 2 + 2
	if got := len(uc.Inputs); got != wantInputs {
		t.Errorf("inputs = %d, want %d", got, wantInputs)
	}
	// Observable FF contributes a D tap per frame.
	wantOutputs := 2*len(d.C.Outputs) + 2
	if got := len(uc.Outputs); got != wantOutputs {
		t.Errorf("outputs = %d, want %d", got, wantOutputs)
	}
}

// TestGeneratedTestsConfirm: for every scan-affecting-ish fault that the
// sequential generator claims to test with full enhancement, the
// translated sequence must actually detect the fault on the real
// scan-mode circuit (confirmed by fault simulation).
func TestGeneratedTestsConfirm(t *testing.T) {
	d, err := tpi.Insert(bench.MustS27(), tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Enhance nothing: plain sequential ATPG over 4 frames.
	m, err := Build(d, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapsed(d.C)
	found, confirmed, aborted := 0, 0, 0
	for _, f := range faults {
		res := m.Generate(f, 2000)
		if res.Status != atpg.Found {
			if res.Status == atpg.Aborted {
				aborted++
			}
			continue
		}
		found++
		fr, _ := faultsim.RunCtx(context.Background(), d.C, faultsim.Sequence(res.Sequence), []fault.Fault{f}, faultsim.Options{})
		if fr.DetectedAt[0] >= 0 {
			confirmed++
		}
	}
	t.Logf("found=%d confirmed=%d aborted=%d of %d faults", found, confirmed, aborted, len(faults))
	if found == 0 {
		t.Fatal("no sequential tests generated")
	}
	// Translation is exact (no enhanced pseudo-inputs beyond frame-0 X),
	// so a very large share of found tests must confirm.
	if float64(confirmed) < 0.8*float64(found) {
		t.Errorf("only %d of %d found tests confirmed", confirmed, found)
	}
}

// TestEnhancementHelps: with the whole chain controllable and observable
// the generator should find tests for at least as many faults as with no
// enhancement.
func TestEnhancementHelps(t *testing.T) {
	d, err := tpi.Insert(bench.MustS27(), tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := map[netlist.SignalID]bool{}
	obs := map[netlist.SignalID]bool{}
	for _, ff := range d.C.FFs {
		ctrl[ff] = true
		obs[ff] = true
	}
	plain, err := Build(d, nil, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	enh, err := Build(d, ctrl, obs, 2)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapsed(d.C)
	plainFound, enhFound := 0, 0
	for _, f := range faults {
		if plain.Generate(f, 500).Status == atpg.Found {
			plainFound++
		}
		if enh.Generate(f, 500).Status == atpg.Found {
			enhFound++
		}
	}
	t.Logf("plain=%d enhanced=%d of %d", plainFound, enhFound, len(faults))
	if enhFound < plainFound {
		t.Errorf("enhancement reduced found tests: %d < %d", enhFound, plainFound)
	}
}

// TestTranslationLoadsConstraint: constrain one controllable FF via the
// model and check the translated preamble actually loads it.
func TestTranslationLoadsConstraint(t *testing.T) {
	d, err := tpi.Insert(bench.MustS27(), tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := map[netlist.SignalID]bool{}
	for _, ff := range d.C.FFs {
		ctrl[ff] = true
	}
	m, err := Build(d, ctrl, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a fault the enhanced model can certainly test: a stem fault
	// on a chain flip-flop output.
	ff0 := d.Chains[0].FFs[0]
	f := fault.Fault{Signal: ff0, Gate: netlist.None, Pin: -1, Stuck: logic.Zero}
	res := m.Generate(f, 2000)
	if res.Status != atpg.Found {
		t.Fatalf("status = %v", res.Status)
	}
	fr, _ := faultsim.RunCtx(context.Background(), d.C, faultsim.Sequence(res.Sequence), []fault.Fault{f}, faultsim.Options{})
	if fr.DetectedAt[0] < 0 {
		t.Error("translated test for FF stem fault not confirmed")
	}
}

func TestBuildValidation(t *testing.T) {
	d, err := tpi.Insert(bench.MustS27(), tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(d, nil, nil, 0); err == nil {
		t.Error("Build accepted 0 frames")
	}
}
