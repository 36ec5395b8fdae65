package core

import (
	"context"
	"testing"
)

func TestChainNets(t *testing.T) {
	d := s27Design(t, 1)
	nets := ChainNets(d)
	if len(nets) == 0 {
		t.Fatal("no chain nets")
	}
	seen := map[string]bool{}
	for _, n := range nets {
		name := d.C.NameOf(n)
		if seen[name] {
			t.Errorf("duplicate chain net %s", name)
		}
		seen[name] = true
	}
	// Every flip-flop must be there.
	for _, ff := range d.C.FFs {
		if !seen[d.C.NameOf(ff)] {
			t.Errorf("chain nets missing FF %s", d.C.NameOf(ff))
		}
	}
}

// TestChainTransitionCoverageHigh: the alternating test must catch the
// overwhelming majority of transition faults on the chain path — both
// edges pass through every link each period.
func TestChainTransitionCoverageHigh(t *testing.T) {
	for _, chains := range []int{1, 2} {
		d := s27Design(t, chains)
		det, total, und, _ := ChainTransitionCoverageCtx(context.Background(), d, 12, 1)
		if total == 0 {
			t.Fatal("no transition faults enumerated")
		}
		cov := float64(det) / float64(total)
		t.Logf("chains=%d: %d/%d chain transition faults (%.0f%%), undetected: %d",
			chains, det, total, 100*cov, len(und))
		if cov < 0.9 {
			t.Errorf("chains=%d: transition coverage only %.2f", chains, cov)
		}
		if det+len(und) != total {
			t.Error("accounting broken")
		}
	}
}

func TestChainTransitionCoverageGenerated(t *testing.T) {
	d := genDesign(t, 250, 14, 2, 5)
	det, total, _, _ := ChainTransitionCoverageCtx(context.Background(), d, 12, 1)
	if total == 0 || det == 0 {
		t.Fatalf("degenerate coverage %d/%d", det, total)
	}
	if float64(det) < 0.8*float64(total) {
		t.Errorf("transition coverage %d/%d too low", det, total)
	}
}
