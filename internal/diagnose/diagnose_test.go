package diagnose

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/scan"
	"repro/internal/tpi"
)

func buildDesign(t *testing.T, chains int) *scan.Design {
	t.Helper()
	d, err := tpi.Insert(bench.MustS27(), tpi.Options{NumChains: chains, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiagnoseRoundTrip: for every chain-affecting fault, a simulated
// failing device must match its own dictionary entry, and the localized
// suspects must cover the fault's true locations.
func TestDiagnoseRoundTrip(t *testing.T) {
	d := buildDesign(t, 1)
	all := fault.Collapsed(d.C)
	screened, _ := core.ScreenCtx(context.Background(), d, all, core.ScreenOptions{})
	var affecting []fault.Fault
	truth := map[fault.Fault][]core.Location{}
	for _, s := range screened {
		if s.Cat != core.Cat3 {
			affecting = append(affecting, s.Fault)
			truth[s.Fault] = s.Locs
		}
	}
	dict, _ := BuildCtx(context.Background(), d, affecting, DefaultSequences(d, 7), 1, nil)

	diagnosable := 0
	for _, f := range affecting {
		hidden := f
		sig := dict.Observe(&SimulatedDevice{C: d.C, Hidden: &hidden})
		if sig == dict.GoodSignature() {
			// The fault does not show on the diagnostic set — it cannot
			// be diagnosed by response matching (it may need the full
			// ATPG flow even to detect).
			continue
		}
		diagnosable++
		matches := dict.Match(sig)
		found := false
		for _, m := range matches {
			if m == f {
				found = true
			}
		}
		if !found {
			t.Errorf("fault %s not among its own matches", f.Describe(d.C))
			continue
		}
		suspects := dict.Localize(sig)
		if len(truth[f]) == 0 {
			continue
		}
		for _, loc := range truth[f] {
			covered := false
			for _, sus := range suspects {
				if sus.Chain == loc.Chain && sus.LoSeg <= loc.Seg && loc.Seg <= sus.HiSeg {
					covered = true
				}
			}
			if !covered {
				t.Errorf("fault %s: true location %+v not covered by suspects %+v",
					f.Describe(d.C), loc, suspects)
			}
		}
	}
	if diagnosable < len(affecting)/2 {
		t.Errorf("only %d of %d affecting faults diagnosable", diagnosable, len(affecting))
	}
}

func TestGoodDeviceMatchesGoodSignature(t *testing.T) {
	d := buildDesign(t, 1)
	dict, _ := BuildCtx(context.Background(), d, fault.Collapsed(d.C)[:10], DefaultSequences(d, 3), 1, nil)
	sig := dict.Observe(&SimulatedDevice{C: d.C})
	if sig != dict.GoodSignature() {
		t.Error("fault-free device does not match the good signature")
	}
	if len(dict.Match(sig)) > 0 {
		// A fault whose behaviour equals fault-free on the diagnostic
		// set would collide; s27's first ten faults should not.
		t.Log("note: some candidate faults are indistinguishable from fault-free")
	}
}

// TestEquivalentFaultsShareSignature: two faults made equivalent by
// construction must land in the same dictionary bucket.
func TestEquivalentFaultsShareSignature(t *testing.T) {
	d := buildDesign(t, 1)
	all := fault.All(d.C) // uncollapsed: contains equivalent pairs
	dict, _ := BuildCtx(context.Background(), d, all, DefaultSequences(d, 5), 1, nil)
	seen := map[Signature]int{}
	for _, s := range dict.sigs {
		seen[s]++
	}
	collided := 0
	for _, n := range seen {
		if n > 1 {
			collided += n
		}
	}
	if collided == 0 {
		t.Error("no equivalent faults share a signature — suspicious for an uncollapsed list")
	}
}

func TestDiagnoseMultiChain(t *testing.T) {
	c := gen.Generate(gen.Profile{Name: "diag", PIs: 6, POs: 5, FFs: 10, Gates: 140}, 3)
	d, err := tpi.Insert(c, tpi.Options{NumChains: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	all := fault.Collapsed(d.C)
	screened, _ := core.ScreenCtx(context.Background(), d, all, core.ScreenOptions{})
	var affecting []fault.Fault
	for _, s := range screened {
		if s.Cat != core.Cat3 {
			affecting = append(affecting, s.Fault)
		}
	}
	dict, _ := BuildCtx(context.Background(), d, affecting, DefaultSequences(d, 11), 1, nil)
	hits := 0
	for _, f := range affecting {
		hidden := f
		sig := dict.Observe(&SimulatedDevice{C: d.C, Hidden: &hidden})
		if sig == dict.GoodSignature() {
			continue
		}
		for _, m := range dict.Match(sig) {
			if m == f {
				hits++
				break
			}
		}
	}
	if hits == 0 {
		t.Error("no faults diagnosed on the generated design")
	}
}

func TestEmptyDictionary(t *testing.T) {
	d := buildDesign(t, 1)
	dict, _ := BuildCtx(context.Background(), d, nil, DefaultSequences(d, 1), 1, nil)
	if got := dict.Match(dict.GoodSignature()); len(got) != 0 {
		t.Errorf("empty dictionary matched %d faults", len(got))
	}
	if dict.Localize(Signature(12345)) != nil {
		t.Error("unknown signature localized")
	}
}

// TestBuildOptWorkerInvariance pins the determinism contract: the
// dictionary (per-fault signatures and the good reference) is
// byte-identical at any worker count, on a circuit large enough for
// several 63-fault batches.
func TestBuildOptWorkerInvariance(t *testing.T) {
	c := gen.Generate(gen.Suite()[0].Scale(0.2), 3)
	d, err := tpi.Insert(c, tpi.Options{NumChains: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var affecting []fault.Fault
	screened, _ := core.ScreenCtx(context.Background(), d, fault.Collapsed(d.C), core.ScreenOptions{})
	for _, s := range screened {
		if s.Cat != core.Cat3 {
			affecting = append(affecting, s.Fault)
		}
	}
	if len(affecting) < 64 {
		t.Fatalf("want >63 affecting faults for a multi-batch test, got %d", len(affecting))
	}
	seqs := DefaultSequences(d, 7)
	ref, _ := BuildCtx(context.Background(), d, affecting, seqs, 1, nil)
	for _, w := range []int{2, 4, 0} {
		got, _ := BuildCtx(context.Background(), d, affecting, seqs, w, nil)
		if got.good != ref.good {
			t.Errorf("workers=%d: good signature %016x != %016x", w, got.good, ref.good)
		}
		for i := range affecting {
			if got.sigs[i] != ref.sigs[i] {
				t.Fatalf("workers=%d: fault %d signature differs", w, i)
			}
		}
	}
}
