package fsct

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bist"
	"repro/internal/diagnose"
)

// TestAllSystems drives every subsystem against one circuit, end to
// end: scan insertion, the paper's flow, transition coverage, BIST
// signature test, dictionary diagnosis, sequence/Verilog/JSON I/O.
func TestAllSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run in -short mode")
	}
	circuit := GenerateCircuit(MustProfile("s5378").Scale(0.08), 31)
	design, err := InsertScan(circuit, ScanOptions{NumChains: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// The paper's flow.
	report, err := RunFlowCtx(context.Background(), design, FlowParams{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Affecting() == 0 {
		t.Fatal("no chain-affecting faults")
	}
	covered := report.Step2.Detected + report.Step2.Undetectable +
		report.Step3.Detected + report.Step3.Undetectable
	if covered+report.Undetected() != report.Hard+report.EasyEscapes {
		t.Error("flow accounting does not close")
	}

	// Transition (delay) coverage of the chain links.
	tdet, ttot, _ := ChainTransitionCoverageCtx(context.Background(), design, 12, 1)
	if ttot == 0 || float64(tdet) < 0.8*float64(ttot) {
		t.Errorf("transition coverage %d/%d", tdet, ttot)
	}

	// BIST signature self-test over the affecting faults.
	var affecting []Fault
	screened, _ := ScreenFaultsCtx(context.Background(), design, CollapsedFaults(design.C), ScreenOptions{})
	for _, s := range screened {
		if s.Cat != CatUnaffecting {
			affecting = append(affecting, s.Fault)
		}
	}
	bres, err := bist.Run(design, affecting, bist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if bres.DetectedBySignature == 0 {
		t.Error("BIST detected nothing")
	}
	if bres.Aliased > bres.DetectedByCompare/100 {
		t.Errorf("aliasing rate suspicious: %d of %d", bres.Aliased, bres.DetectedByCompare)
	}

	// Diagnosis round trip on a handful of faults.
	dict, _ := BuildDictionaryCtx(context.Background(), design, affecting, 17, 1, nil)
	probes := affecting
	if len(probes) > 12 {
		probes = probes[:12]
	}
	diagnosed := 0
	for _, f := range probes {
		hidden := f
		sig := dict.Observe(&diagnose.SimulatedDevice{C: design.C, Hidden: &hidden})
		if sig == dict.GoodSignature() {
			continue
		}
		for _, m := range dict.Match(sig) {
			if m == f {
				diagnosed++
				break
			}
		}
	}
	if diagnosed == 0 {
		t.Error("diagnosis matched nothing")
	}

	// I/O: sequence round trip, Verilog, JSON.
	seq := Sequence(design.AlternatingSequence(8))
	var buf bytes.Buffer
	if err := WriteSequence(&buf, design.C, seq); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSequence(&buf, design.C); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteVerilog(&buf, design.C); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteReportJSON(&buf, report); err != nil {
		t.Fatal(err)
	}

	t.Logf("all systems: faults=%d affecting=%d undetected=%d transition=%d/%d bist=%d diagnosed=%d/%d",
		report.Faults, report.Affecting(), report.Undetected(),
		tdet, ttot, bres.DetectedBySignature, diagnosed, len(probes))
}
