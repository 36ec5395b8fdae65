package fsct

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestFacadeSequenceRoundTrip(t *testing.T) {
	c := S27()
	seq := Sequence{
		{V0, V1, VX, V0},
		{V1, V1, V0, V0},
	}
	var buf bytes.Buffer
	if err := WriteSequence(&buf, c, seq); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSequence(&buf, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0][1] != V1 || back[0][2] != VX {
		t.Errorf("round trip mangled sequence: %v", back)
	}
}

func TestFacadeVerilog(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, S27()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "module s27") {
		t.Error("Verilog export malformed")
	}
}

func TestFacadeDictionary(t *testing.T) {
	c := GenerateCircuit(MustProfile("s1423").Scale(0.1), 4)
	d, err := InsertScan(c, ScanOptions{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var affecting []Fault
	screened, _ := ScreenFaultsCtx(context.Background(), d, CollapsedFaults(d.C), ScreenOptions{})
	for _, s := range screened {
		if s.Cat != CatUnaffecting {
			affecting = append(affecting, s.Fault)
		}
	}
	dict, _ := BuildDictionaryCtx(context.Background(), d, affecting, 5, 1, nil)
	if dict.GoodSignature() == 0 {
		t.Error("good signature is zero")
	}
}

func TestFacadeTestability(t *testing.T) {
	ta, model, err := AnalyzeTestability(S27(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.CC0) != len(model.Signals) {
		t.Error("testability size mismatch")
	}
	hardest := ta.Hardest(model, 2)
	if len(hardest) != 2 {
		t.Errorf("hardest returned %d", len(hardest))
	}
}

func TestFacadePartialScanSelection(t *testing.T) {
	c := GenerateCircuit(MustProfile("s1423").Scale(0.15), 6)
	sel := SelectPartialScan(c, 0.3)
	if len(sel) == 0 {
		t.Fatal("empty selection")
	}
	d, err := InsertScan(c, ScanOptions{NumChains: 1, Seed: 1, ScanFFs: sel})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Partial() && len(sel) < len(c.FFs) {
		t.Error("partial design not flagged")
	}
}

func TestWriteReportJSON(t *testing.T) {
	rep := smallReport(t, "s1423", 1, 1)
	var buf bytes.Buffer
	if err := WriteReportJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"Circuit"`, `"Faults"`, `"Step2"`, `"Profile"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}

func TestFacadeCompactVectors(t *testing.T) {
	c := GenerateCircuit(MustProfile("s1423").Scale(0.1), 4)
	d, err := InsertScan(c, ScanOptions{NumChains: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	faults := CollapsedFaults(d.C)[:40]
	vectors := make([]ScanVector, 6)
	for i := range vectors {
		vectors[i] = ScanVector{FFs: map[SignalID]Value{}, PIs: map[SignalID]Value{}}
		for j, ff := range d.C.FFs {
			vectors[i].FFs[ff] = Value((i + j) % 2)
		}
	}
	res := CompactVectors(d, vectors, faults)
	if res.After > res.Before {
		t.Error("compaction grew the vector set")
	}
}

func TestDominanceFaultsFacade(t *testing.T) {
	c := S27()
	col := CollapsedFaults(c)
	dom := DominanceFaults(c)
	if len(dom) == 0 || len(dom) >= len(col) {
		t.Errorf("dominance %d vs collapsed %d", len(dom), len(col))
	}
}
