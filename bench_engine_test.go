package fsct

// TestEmitEngineBench writes BENCH_engine.json: the cache-on/off
// ablation for the shared circuit-artifact cache (internal/engine) and
// per-backend fault-simulation timings under the unified evaluator
// interface, so the engine layer's effect on the Table-3 flow is pinned
// next to BENCH_baseline.json.
//
// Like TestEmitBench it is opt-in — a plain `go test ./...` skips it:
//
//	FSCT_EMIT_BENCH=1 go test -run TestEmitEngineBench .

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// benchRandSeq generates a deterministic random functional stimulus —
// the cmd/faultsim -random workload — for the hybrid comparison rows.
func benchRandSeq(c *Circuit, cycles int, seed uint64) Sequence {
	rng := seed*2862933555777941757 + 3037000493
	seq := make(Sequence, cycles)
	for t := range seq {
		pi := make([]Value, len(c.Inputs))
		for i := range pi {
			rng = rng*6364136223846793005 + 1442695040888963407
			pi[i] = Value((rng >> 33) & 1)
		}
		seq[t] = pi
	}
	return seq
}

type engineFlowEntry struct {
	Circuit string       `json:"circuit"`
	Cached  benchMeasure `json:"flow_cached"`
	Bypass  benchMeasure `json:"flow_bypass"`
}

// engineHybridEntry compares the hybrid fault evaluator against the
// compiled sweep on one circuit under a random functional stimulus (the
// cmd/faultsim -random workload). Speedup is compiled over hybrid wall
// time; below the size crossover (see EXPERIMENTS.md) it dips under 1,
// which is why Auto only picks hybrid above ~4096 signals.
type engineHybridEntry struct {
	Circuit  string       `json:"circuit"`
	Scale    float64      `json:"scale"`
	Cycles   int          `json:"cycles"`
	Faults   int          `json:"faults"`
	Compiled benchMeasure `json:"compiled"`
	Hybrid   benchMeasure `json:"hybrid"`
	Speedup  float64      `json:"speedup"`
}

type engineBench struct {
	Note       string                  `json:"note"`
	GoVersion  string                  `json:"go_version"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Scale      float64                 `json:"scale"`
	Flow       []engineFlowEntry       `json:"flow"`
	Backends   map[string]benchMeasure `json:"faultsim_backends"`
	Hybrid     []engineHybridEntry     `json:"faultsim_hybrid"`
	// Headline ratio: summed bypass flow time over summed cached flow
	// time (per-circuit rows above are the source of truth).
	FlowCacheSpeedup float64 `json:"flow_cache_speedup"`
}

func TestEmitEngineBench(t *testing.T) {
	if os.Getenv("FSCT_EMIT_BENCH") == "" {
		t.Skip("set FSCT_EMIT_BENCH=1 to measure and write BENCH_engine.json")
	}
	out := engineBench{
		Note: "Cache ablation for the shared circuit-artifact cache: flow_cached reuses " +
			"one warm engine cache across iterations (the default-cache behavior of " +
			"repeated runs on one circuit); flow_bypass rebuilds every derived artifact " +
			"per phase. Backend rows force one evaluator each on the largest circuit at " +
			"bench scale (below the hybrid crossover — hybrid is deliberately out of " +
			"its regime there). faultsim_hybrid rows compare hybrid against " +
			"compiled at the crossover scale under random functional stimulus.",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      benchScale,
		Backends:   map[string]benchMeasure{},
	}

	var cachedNs, bypassNs int64
	for _, name := range []string{"s9234", "s38584"} {
		p := MustProfile(name).Scale(benchScale)
		c := GenerateCircuit(p, 1)
		d, err := InsertScan(c, ScanOptions{NumChains: DefaultChains(len(c.FFs)), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cache := NewEngineCache()
		e := engineFlowEntry{Circuit: name}
		e.Cached = measure(func() {
			if _, err := RunFlow(d, FlowParams{Engine: cache}); err != nil {
				t.Fatal(err)
			}
		})
		e.Bypass = measure(func() {
			if _, err := RunFlow(d, FlowParams{Engine: NewEngineBypass()}); err != nil {
				t.Fatal(err)
			}
		})
		cachedNs += e.Cached.NsPerOp
		bypassNs += e.Bypass.NsPerOp
		out.Flow = append(out.Flow, e)
	}
	if cachedNs > 0 {
		out.FlowCacheSpeedup = float64(bypassNs) / float64(cachedNs)
	}

	d := mustBenchDesign(t, "s38584")
	faults := CollapsedFaults(d.C)
	seq := Sequence(d.AlternatingSequence(8))
	for _, b := range []EvalBackend{EvalCompiled, EvalHybrid} {
		out.Backends[b.String()] = measure(func() {
			SimulateFaultsOpt(d.C, seq, faults, SimOptions{Eval: b})
		})
	}

	// Hybrid-vs-compiled rows at the size crossover: the delta path's
	// per-fault cost tracks divergence, not circuit size, so it needs a
	// big enough circuit for the compiled sweep's per-fault share to
	// exceed it. s9234 at this scale sits below the crossover (speedup
	// < 1 — the reason for Auto's size gate), s38584 above it.
	const hybridScale = 0.2
	const hybridCycles = 256
	for _, name := range []string{"s9234", "s38584"} {
		p := MustProfile(name).Scale(hybridScale)
		c := GenerateCircuit(p, 1)
		hd, err := InsertScan(c, ScanOptions{NumChains: DefaultChains(len(c.FFs)), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		hf := CollapsedFaults(hd.C)
		hseq := benchRandSeq(hd.C, hybridCycles, 1)
		e := engineHybridEntry{Circuit: name, Scale: hybridScale, Cycles: hybridCycles, Faults: len(hf)}
		e.Compiled = measure(func() {
			SimulateFaultsOpt(hd.C, hseq, hf, SimOptions{Eval: EvalCompiled})
		})
		e.Hybrid = measure(func() {
			SimulateFaultsOpt(hd.C, hseq, hf, SimOptions{Eval: EvalHybrid})
		})
		if e.Hybrid.NsPerOp > 0 {
			e.Speedup = float64(e.Compiled.NsPerOp) / float64(e.Hybrid.NsPerOp)
		}
		out.Hybrid = append(out.Hybrid, e)
	}

	f, err := os.Create("BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		t.Fatal(err)
	}
	t.Logf("flow cache speedup (bypass/cached): %.2fx", out.FlowCacheSpeedup)
}
