package faultsim

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim"
)

// TestHybridMatchesCompiled is the core byte-identity pin: the hybrid
// strategy must produce exactly the compiled backend's DetectedAt slice
// on s27 and randomized sequential circuits, across cone thresholds
// that force everything onto the delta path (huge), everything off it
// (tiny), and the tuned default in between.
func TestHybridMatchesCompiled(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		c := bench.MustS27()
		name := "s27"
		if trial > 0 {
			c = gen.Generate(gen.Profile{
				Name: "hyb", PIs: 4 + r.Intn(6), POs: 3 + r.Intn(4),
				FFs: 5 + r.Intn(14), Gates: 80 + r.Intn(200),
			}, int64(500+trial))
			name = c.Name
		}
		faults := fault.Collapsed(c)
		seq := randSeq(r, len(c.Inputs), 30+r.Intn(40), true)
		ref, _ := RunCtx(context.Background(), c, seq, faults, Options{Eval: engine.Compiled})
		for _, thr := range []int{1, 4, engine.DefaultConeThreshold, 1 << 20} {
			got, _ := RunCtx(context.Background(), c, seq, faults, Options{Eval: engine.Hybrid, coneThreshold: thr})
			if !reflect.DeepEqual(ref.DetectedAt, got.DetectedAt) {
				for i := range ref.DetectedAt {
					if ref.DetectedAt[i] != got.DetectedAt[i] {
						t.Errorf("%s thr=%d fault %d (%s): compiled %d, hybrid %d",
							name, thr, i, faults[i].Describe(c), ref.DetectedAt[i], got.DetectedAt[i])
					}
				}
				t.Fatalf("%s: hybrid diverged from compiled at thr=%d", name, thr)
			}
		}
	}
}

// randState returns a random definite flip-flop state vector.
func randState(r *rand.Rand, n int) []logic.V {
	st := make([]logic.V, n)
	for i := range st {
		st[i] = logic.V(r.Intn(2))
	}
	return st
}

// TestHybridMatchesCompiledWithInitState covers the preset-state path
// (scan-loaded flip-flops) through both hybrid phases.
func TestHybridMatchesCompiledWithInitState(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	c := gen.Generate(gen.Profile{Name: "hybst", PIs: 6, POs: 5, FFs: 12, Gates: 150}, 9)
	faults := fault.Collapsed(c)
	seq := randSeq(r, len(c.Inputs), 40, false)
	init := randState(r, len(c.FFs))
	ref, _ := RunCtx(context.Background(), c, seq, faults, Options{Eval: engine.Compiled, InitState: init})
	got, _ := RunCtx(context.Background(), c, seq, faults, Options{Eval: engine.Hybrid, InitState: init})
	if !reflect.DeepEqual(ref.DetectedAt, got.DetectedAt) {
		t.Fatal("hybrid with InitState diverged from compiled")
	}
}

// TestHybridDeterministicAcrossWorkers pins the sharding contract for
// the hybrid strategy: identical results at every worker count, with
// and without early stop, at demotion-heavy and demotion-free
// thresholds.
func TestHybridDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	c := gen.Generate(gen.Profile{Name: "hybdet", PIs: 8, POs: 6, FFs: 20, Gates: 400}, 78)
	faults := fault.Collapsed(c)
	seq := randSeq(r, len(c.Inputs), 60, true)
	for _, thr := range []int{2, engine.DefaultConeThreshold, 1 << 20} {
		for _, stop := range []bool{false, true} {
			ref, _ := RunCtx(context.Background(), c, seq, faults, Options{
				Eval: engine.Hybrid, coneThreshold: thr, Workers: 1, StopWhenAllDetected: stop,
			})
			for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0), 0} {
				got, _ := RunCtx(context.Background(), c, seq, faults, Options{
					Eval: engine.Hybrid, coneThreshold: thr, Workers: workers, StopWhenAllDetected: stop,
				})
				if !reflect.DeepEqual(ref.DetectedAt, got.DetectedAt) {
					t.Fatalf("thr=%d stop=%v: workers=%d result differs from workers=1", thr, stop, workers)
				}
			}
		}
	}
}

// TestHybridSmallConeNeverDemoted pins the admission guarantee: a fault
// whose static influence cone fits the threshold can never exceed the
// per-cycle budget, so the delta path must keep it for the whole run.
func TestHybridSmallConeNeverDemoted(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	c := gen.Generate(gen.Profile{Name: "hybad", PIs: 6, POs: 5, FFs: 10, Gates: 120}, 12)
	faults := fault.Collapsed(c)
	seq := randSeq(r, len(c.Inputs), 50, true)
	seqW := broadcastSeq(c, seq)
	idx := sim.NewConeIndex(c, 0)
	const thr = 24
	d := sim.NewDeltaSeq(sim.Compile(c))
	injs := make([]sim.Inject, len(faults))
	for i := range faults {
		injs[i] = faults[i].Inject()
	}
	det := make([]int, len(faults))
	over := make([]bool, len(faults))
	d.Run(injs, seqW, nil, thr, det, over)
	for i, f := range faults {
		if s := idx.Size(sim.ConeRoot(injs[i])); s >= 0 && s <= thr && over[i] {
			t.Errorf("fault %d (%s): cone %d <= thr %d but demoted", i, f.Describe(c), s, thr)
		}
	}
}

// FuzzHybridMatchesCompiled is the fuzz-style randomized-circuit
// equivalence check: any (circuit seed, sequence seed, threshold)
// triple must yield identical hybrid and compiled verdicts. `go test`
// runs the seed corpus; `go test -fuzz=FuzzHybridMatchesCompiled`
// explores further.
func FuzzHybridMatchesCompiled(f *testing.F) {
	f.Add(int64(1), int64(2), 8)
	f.Add(int64(3), int64(5), 1)
	f.Add(int64(7), int64(11), 1<<16)
	f.Fuzz(func(t *testing.T, circSeed, seqSeed int64, thr int) {
		if thr < 1 || thr > 1<<20 {
			t.Skip()
		}
		cr := rand.New(rand.NewSource(circSeed))
		c := gen.Generate(gen.Profile{
			Name: "fuzz", PIs: 3 + cr.Intn(6), POs: 2 + cr.Intn(5),
			FFs: 2 + cr.Intn(12), Gates: 30 + cr.Intn(150),
		}, circSeed)
		faults := fault.Collapsed(c)
		seq := randSeq(rand.New(rand.NewSource(seqSeed)), len(c.Inputs), 25, true)
		ref, _ := RunCtx(context.Background(), c, seq, faults, Options{Eval: engine.Compiled})
		got, _ := RunCtx(context.Background(), c, seq, faults, Options{Eval: engine.Hybrid, coneThreshold: thr})
		if !reflect.DeepEqual(ref.DetectedAt, got.DetectedAt) {
			t.Fatalf("hybrid diverged: circSeed=%d seqSeed=%d thr=%d", circSeed, seqSeed, thr)
		}
	})
}
