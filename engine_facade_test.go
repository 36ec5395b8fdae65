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

// TestRunFlowCtxPartialReport pins the facade's interruption contract:
// a cancelled context yields a non-nil partial report alongside an error
// that unwraps to context.Canceled — never a panic, never a nil report.
func TestRunFlowCtxPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, d, err := runExperiment(ctx, t, MustProfile("s1423"), 0.05, 0, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || d == nil {
		t.Fatal("cancelled RunFlowCtx dropped the partial report or design")
	}

	// And the ctx-aware helpers surface the same error shape.
	if _, serr := ScreenFaultsCtx(ctx, d, CollapsedFaults(d.C), ScreenOptions{}); !errors.Is(serr, context.Canceled) {
		t.Errorf("ScreenFaultsCtx err = %v", serr)
	}
	if _, derr := BuildDictionaryCtx(ctx, d, CollapsedFaults(d.C)[:5], 1, 1, nil); !errors.Is(derr, context.Canceled) {
		t.Errorf("BuildDictionaryCtx err = %v", derr)
	}
	if _, _, terr := ChainTransitionCoverageCtx(ctx, d, 8, 1); !errors.Is(terr, context.Canceled) {
		t.Errorf("ChainTransitionCoverageCtx err = %v", terr)
	}
}
