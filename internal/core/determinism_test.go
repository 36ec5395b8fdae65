package core

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/tpi"
)

// canonicalReport serializes a report with its wall-clock fields zeroed,
// so two functionally identical runs compare byte-identical.
func canonicalReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	r := *rep
	r.ScreenCPU = 0
	r.Step2.CPU = 0
	r.Step3.CPU = 0
	r.Metrics = nil
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(&r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlowDeterministicAcrossCacheAndWorkers pins the tentpole's
// behavioral contract: the flow's functional output is byte-identical
// whether artifacts come out of a shared cache or are rebuilt cold per
// phase, and at any worker width.
func TestFlowDeterministicAcrossCacheAndWorkers(t *testing.T) {
	widths := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, name := range []string{"s1423", "s5378"} {
		p, err := gen.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p = p.Scale(0.04)
		c := gen.Generate(p, 1)
		d, err := tpi.Insert(c, tpi.Options{NumChains: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}

		var want []byte
		for _, cold := range []bool{false, true} {
			for _, w := range widths {
				cache := engine.New()
				if cold {
					cache = engine.Bypass()
				}
				rep, err := RunCtx(context.Background(), d, Params{Workers: w, Engine: cache})
				if err != nil {
					t.Fatalf("%s cold=%v workers=%d: %v", name, cold, w, err)
				}
				got := canonicalReport(t, rep)
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: report differs at cold=%v workers=%d", name, cold, w)
				}
			}
		}
	}
}

// TestFlowCompileOncePerCircuit asserts the cache's headline effect: one
// full flow run compiles exactly two programs — the scan circuit and its
// combinational ATPG model — no matter how many phases, fault-simulation
// calls and dropper workers consume them; and a second run over a warm
// cache compiles nothing.
func TestFlowCompileOncePerCircuit(t *testing.T) {
	d := genDesign(t, 300, 24, 2, 8)
	cache := engine.New()

	col := obs.New()
	if _, err := RunCtx(context.Background(), d, Params{Workers: 4, Obs: col, Engine: cache}); err != nil {
		t.Fatal(err)
	}
	if got := col.Snapshot().Counters["sim.compile.count"]; got != 2 {
		t.Errorf("cold run compiled %d programs, want 2 (scan circuit + comb model)", got)
	}

	col2 := obs.New()
	if _, err := RunCtx(context.Background(), d, Params{Workers: 4, Obs: col2, Engine: cache}); err != nil {
		t.Fatal(err)
	}
	if got := col2.Snapshot().Counters["sim.compile.count"]; got != 0 {
		t.Errorf("warm run compiled %d programs, want 0", got)
	}
}
