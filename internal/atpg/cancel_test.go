package atpg

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
)

// TestGenerateCtxCancelled pins the PODEM cancellation contract: a dead
// context aborts the search at a backtrack boundary with
// context.Canceled instead of burning the whole backtrack budget, and a
// nil context matches the ctx-free entry point.
func TestGenerateCtxCancelled(t *testing.T) {
	orig := gen.Generate(gen.Profile{Name: "podemctx", PIs: 8, POs: 6, FFs: 12, Gates: 200}, 4)
	cm, err := BuildCombModel(orig)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(cm.C, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m)
	faults := fault.Collapsed(cm.C)
	if len(faults) < 10 {
		t.Fatal("not enough faults")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, f := range faults[:10] {
		if _, gerr := e.GenerateCtx(ctx, f, 250); !errors.Is(gerr, context.Canceled) {
			t.Fatalf("cancelled GenerateCtx returned %v, want context.Canceled", gerr)
		}
	}

	// nil context == Background: identical verdicts.
	for _, f := range faults[:10] {
		got, gerr := e.GenerateCtx(nil, f, 250)
		if gerr != nil {
			t.Fatal(gerr)
		}
		want, _ := NewEngine(m).GenerateCtx(context.Background(), f, 250)
		if got.Status != want.Status {
			t.Errorf("fault %v: nil-ctx status %v != Background status %v", f, got.Status, want.Status)
		}
	}
}
