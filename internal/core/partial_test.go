package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/tpi"
)

// TestRunPartialScan exercises the full flow on a partial-scan design:
// step 2 must take the random-vector path and never claim
// undetectability, and the accounting must still close.
func TestRunPartialScan(t *testing.T) {
	c := gen.Generate(gen.Profile{Name: "part", PIs: 8, POs: 6, FFs: 16, Gates: 220}, 6)
	sel := tpi.SelectPartialScan(c, 0.5)
	if len(sel) == 0 || len(sel) == len(c.FFs) {
		t.Fatalf("selection %d of %d not partial", len(sel), len(c.FFs))
	}
	d, err := tpi.Insert(c, tpi.Options{NumChains: 1, Seed: 2, ScanFFs: sel})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunCtx(context.Background(), d, Params{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("partial: faults=%d affecting=%d step2=%+v step3=%+v undetected=%d vectors=%d",
		rep.Faults, rep.Affecting(), rep.Step2, rep.Step3, rep.Undetected(), rep.Step2Vectors)

	if rep.Step2.Undetectable != 0 {
		t.Error("random step 2 claimed undetectable faults")
	}
	if rep.Step3.Undetectable != 0 {
		t.Error("partial-scan step 3 claimed undetectable faults (comb proofs are unsound there)")
	}
	if rep.Step2Vectors == 0 {
		t.Error("random vector count not reported")
	}
	accounted := rep.Step2.Detected + rep.Step2.Undetected
	if accounted != rep.Hard+rep.EasyEscapes {
		t.Errorf("step-2 accounting %d != hard %d + escapes %d", accounted, rep.Hard, rep.EasyEscapes)
	}
	s3 := rep.Step3.Detected + rep.Step3.Undetectable + rep.Step3.Undetected
	if s3 != rep.Step2.Undetected {
		t.Errorf("step-3 accounting %d != %d", s3, rep.Step2.Undetected)
	}
}
