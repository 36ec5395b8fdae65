package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/tpi"
)

// TestScreenDeterministicAcrossWorkers pins the sharded screener's
// determinism contract: identical []Screened (categories AND location
// lists) for workers = 1, 4 and GOMAXPROCS.
func TestScreenDeterministicAcrossWorkers(t *testing.T) {
	c := gen.Generate(gen.Profile{Name: "sdet", PIs: 10, POs: 8, FFs: 40, Gates: 600}, 3)
	d, err := tpi.Insert(c, tpi.Options{NumChains: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapsed(d.C)
	ref := ScreenOpt(d, faults, ScreenOptions{Workers: 1})
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0), 0} {
		got := ScreenOpt(d, faults, ScreenOptions{Workers: workers})
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d: screening output differs from serial reference", workers)
		}
	}
}

// TestFlowDeterministicAcrossWorkers runs the full three-step flow at
// several worker widths and requires identical reports (detections,
// undetected fault lists, profiles — everything except CPU times).
func TestFlowDeterministicAcrossWorkers(t *testing.T) {
	c := gen.Generate(gen.Profile{Name: "fdet", PIs: 8, POs: 6, FFs: 30, Gates: 400}, 5)
	d, err := tpi.Insert(c, tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	strip := func(r *Report) Report {
		s := *r
		s.ScreenCPU = 0
		s.Step2.CPU = 0
		s.Step3.CPU = 0
		return s
	}
	ref, err := Run(d, Params{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, err := Run(d, Params{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(strip(ref), strip(got)) {
			t.Fatalf("workers=%d: flow report differs from serial reference", workers)
		}
	}
}

// TestFaultsimDeterminismViaFlowSequences exercises faultsim.Run across
// widths on a real scan-design workload (the alternating sequence), the
// stimulus the flow actually feeds it, under both backends.
func TestFaultsimDeterminismViaFlowSequences(t *testing.T) {
	d := s27Design(t, 1)
	faults := fault.Collapsed(d.C)
	alt := faultsim.Sequence(d.AlternatingSequence(8))
	ref := faultsim.Run(d.C, alt, faults, faultsim.Options{Workers: 1})
	for _, eval := range []engine.Backend{engine.Compiled, engine.Hybrid} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			got := faultsim.Run(d.C, alt, faults, faultsim.Options{Workers: workers, Eval: eval})
			if !reflect.DeepEqual(ref.DetectedAt, got.DetectedAt) {
				t.Fatalf("eval=%v workers=%d: alternating-sequence detections differ", eval, workers)
			}
		}
	}
}
