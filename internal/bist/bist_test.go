package bist

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/tpi"
)

func design(t *testing.T) *scan.Design {
	t.Helper()
	d, err := tpi.Insert(bench.MustS27(), tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLFSRMaximalPeriod(t *testing.T) {
	l, err := NewLFSR(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	period := 0
	start := l.State()
	for {
		if seen[l.State()] {
			t.Fatalf("state repeated before full period at %d", period)
		}
		seen[l.State()] = true
		l.NextBit()
		period++
		if l.State() == start {
			break
		}
		if period > 300 {
			t.Fatal("period runaway")
		}
	}
	if period != 255 {
		t.Errorf("width-8 LFSR period = %d, want 255", period)
	}
}

func TestLFSRNeverZero(t *testing.T) {
	for _, w := range []int{8, 16, 24, 32, 48, 64} {
		l, err := NewLFSR(w, 0) // zero seed must be fixed up
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			l.NextBit()
			if l.State() == 0 {
				t.Fatalf("width-%d LFSR reached the all-zero lockup state", w)
			}
		}
	}
	if _, err := NewLFSR(13, 1); err == nil {
		t.Error("unsupported width accepted")
	}
}

func TestLFSRBalanced(t *testing.T) {
	l, _ := NewLFSR(16, 0xBEEF)
	ones := 0
	const n = 4096
	for i := 0; i < n; i++ {
		if l.NextBit() == logic.One {
			ones++
		}
	}
	if ones < n*45/100 || ones > n*55/100 {
		t.Errorf("LFSR bit balance off: %d/%d ones", ones, n)
	}
}

func TestMISROrderSensitivity(t *testing.T) {
	a, _ := NewMISR(16)
	b, _ := NewMISR(16)
	a.Fold([]logic.V{logic.One, logic.Zero})
	a.Fold([]logic.V{logic.Zero, logic.Zero})
	b.Fold([]logic.V{logic.Zero, logic.Zero})
	b.Fold([]logic.V{logic.One, logic.Zero})
	if a.Signature() == b.Signature() {
		t.Error("MISR insensitive to response order")
	}
	// And sensitive to single-bit flips.
	c1, _ := NewMISR(16)
	c2, _ := NewMISR(16)
	c1.Fold([]logic.V{logic.One, logic.One, logic.Zero})
	c2.Fold([]logic.V{logic.One, logic.Zero, logic.Zero})
	if c1.Signature() == c2.Signature() {
		t.Error("MISR insensitive to a single-bit difference")
	}
}

func TestGoldenSignatureDeterministic(t *testing.T) {
	d := design(t)
	a, err := GoldenSignature(d)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GoldenSignature(d)
	if a != b {
		t.Error("golden signature nondeterministic")
	}
	cfg := sessionConfig(d)
	cfg.seed = 0xDEAD
	c, _ := goldenSignature(d, cfg)
	if a == c {
		t.Error("different seed produced the same signature (suspicious)")
	}
}

func TestRunDetectsChainFaults(t *testing.T) {
	d := design(t)
	all := fault.Collapsed(d.C)
	var affecting []fault.Fault
	screened, _ := core.ScreenCtx(context.Background(), d, all, core.ScreenOptions{})
	for _, s := range screened {
		if s.Cat != core.Cat3 {
			affecting = append(affecting, s.Fault)
		}
	}
	res, err := Run(d, affecting)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("compare=%d signature=%d aliased=%d of %d chain faults",
		res.DetectedByCompare, res.DetectedBySignature, res.Aliased, len(affecting))
	if res.DetectedByCompare == 0 {
		t.Fatal("BIST stimulus detects nothing")
	}
	if res.DetectedBySignature+res.Aliased != res.DetectedByCompare {
		t.Error("signature + aliased != compare-detected")
	}
	// With a 32-bit MISR, aliasing is theoretically ~2^-32; any alias on
	// this small set means something structural is wrong.
	if res.Aliased > 0 {
		t.Errorf("unexpected aliasing: %v", res.AliasedFaults)
	}
	// The LFSR stimulus should match or beat the alternating sequence on
	// chain faults (it exercises the free inputs too).
	alt := d.AlternatingSequence(8)
	altDet := 0
	for i, cyc := range packedCompare(d, alt, affecting) {
		_ = i
		if cyc >= 0 {
			altDet++
		}
	}
	if res.DetectedByCompare < altDet {
		t.Errorf("BIST compare detections %d below alternating %d", res.DetectedByCompare, altDet)
	}
}

func TestNarrowMISRAliases(t *testing.T) {
	// An 8-bit MISR over long response streams should eventually alias
	// somewhere across many faults; we only check the machinery accepts
	// narrow widths and stays consistent.
	d := design(t)
	all := fault.Collapsed(d.C)
	cfg := sessionConfig(d)
	cfg.misrWidth, cfg.cycles = 8, 64
	res, err := run(d, all, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedBySignature+res.Aliased != res.DetectedByCompare {
		t.Error("accounting broken at width 8")
	}
}

func TestWeightedBitDensity(t *testing.T) {
	cases := []struct {
		w    Weighting
		want float64
	}{{Uniform, 0.5}, {Quarter, 0.25}, {ThreeQuart, 0.75}, {Eighth, 0.125}}
	for _, cs := range cases {
		l, _ := NewLFSR(32, 0xFEED)
		const n = 20000
		ones := 0
		for i := 0; i < n; i++ {
			if l.WeightedBit(cs.w) == logic.One {
				ones++
			}
		}
		got := float64(ones) / n
		if got < cs.want-0.03 || got > cs.want+0.03 {
			t.Errorf("weighting %d: density %.3f, want %.3f", cs.w, got, cs.want)
		}
	}
}

func TestWeightedStimulusChangesSignature(t *testing.T) {
	d := design(t)
	cfg := sessionConfig(d)
	a, err := goldenSignature(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.weight = Quarter
	b, err := goldenSignature(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("weighting did not change the stimulus")
	}
}
