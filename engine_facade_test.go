package fsct

import (
	"context"
	"errors"
	"testing"
)

func TestProfileByNameFacade(t *testing.T) {
	p, err := ProfileByName("s1423")
	if err != nil || p.Name != "s1423" {
		t.Fatalf("ProfileByName(s1423) = %+v, %v", p, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("ProfileByName accepted an unknown name")
	}
}

func TestParseEvalBackendFacade(t *testing.T) {
	for name, want := range map[string]EvalBackend{
		"auto": EvalAuto, "compiled": EvalCompiled, "hybrid": EvalHybrid,
	} {
		got, err := ParseEvalBackend(name)
		if err != nil || got != want {
			t.Errorf("ParseEvalBackend(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"quantum", "packed", "scalar", "event"} {
		if _, err := ParseEvalBackend(name); err == nil {
			t.Errorf("ParseEvalBackend accepted %q", name)
		}
	}
}

// TestRunFlowCtxPartialReport pins the facade's interruption contract:
// a cancelled context yields a non-nil partial report alongside an error
// that unwraps to context.Canceled — never a panic, never a nil report.
func TestRunFlowCtxPartialReport(t *testing.T) {
	exp := Experiment{Profile: MustProfile("s1423"), Scale: 0.05, Seed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, d, err := exp.RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || d == nil {
		t.Fatal("cancelled RunCtx dropped the partial report or design")
	}

	// And the ctx-aware helpers surface the same error shape.
	if _, serr := ScreenFaultsCtx(ctx, d, CollapsedFaults(d.C), ScreenOptions{}); !errors.Is(serr, context.Canceled) {
		t.Errorf("ScreenFaultsCtx err = %v", serr)
	}
	if _, derr := BuildDictionaryCtx(ctx, d, CollapsedFaults(d.C)[:5], 1, 1); !errors.Is(derr, context.Canceled) {
		t.Errorf("BuildDictionaryCtx err = %v", derr)
	}
	if _, _, terr := ChainTransitionCoverageCtx(ctx, d, 8, 1); !errors.Is(terr, context.Canceled) {
		t.Errorf("ChainTransitionCoverageCtx err = %v", terr)
	}
}

// TestEvalBackendsAgreeViaFacade runs the alternating-test simulation
// under every forced backend and demands identical detection verdicts.
func TestEvalBackendsAgreeViaFacade(t *testing.T) {
	exp := Experiment{Profile: MustProfile("s1423"), Scale: 0.05, Seed: 1}
	c := GenerateCircuit(exp.Profile.Scale(exp.Scale), exp.Seed)
	d, err := InsertScan(c, ScanOptions{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	faults := CollapsedFaults(d.C)
	seq := Sequence(d.AlternatingSequence(8))
	var ref *SimResult
	for _, b := range []EvalBackend{EvalCompiled, EvalHybrid} {
		res := SimulateFaultsOpt(d.C, seq, faults, SimOptions{Eval: b})
		if ref == nil {
			ref = res
			continue
		}
		for i := range ref.DetectedAt {
			if res.DetectedAt[i] != ref.DetectedAt[i] {
				t.Fatalf("backend %v: fault %d detected at %d, compiled says %d",
					b, i, res.DetectedAt[i], ref.DetectedAt[i])
			}
		}
	}
}
