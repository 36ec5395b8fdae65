package core

import (
	"context"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/scan"
)

// CompactResult reports a vector-set compaction.
type CompactResult struct {
	Before, After int
	Vectors       []scan.Vector
}

// CompactVectors performs static test-set compaction on a step-2 vector
// set: it fault-simulates the converted sequence, attributes each
// fault's first detection to the vector whose response window caught
// it, drops every vector that owns no first detection, and verifies by
// re-simulation that coverage did not drop (restoring the original set
// if it somehow did — window overlap makes attribution conservative,
// not exact).
//
// The paper's Figure 5 observation — most detections happen in the
// first few vectors — is exactly why this pass pays off: the long tail
// of vectors usually owns nothing.
func CompactVectors(d *scan.Design, vectors []scan.Vector, faults []fault.Fault) CompactResult {
	if len(vectors) <= 1 || len(faults) == 0 {
		return CompactResult{Before: len(vectors), After: len(vectors), Vectors: vectors}
	}
	L := d.MaxChainLen()
	seq := faultsim.Sequence(d.ConvertVectors(vectors))
	base, _ := faultsim.RunCtx(context.TODO(), d.C, seq, faults, faultsim.Options{})
	baseDet := base.NumDetected()

	// Attribution: the sequence is [flush | w0 | w1 | … | flush-out];
	// a detection at cycle c inside window k (starting at L*(1+k))
	// happens while vector k-1's loaded state is live and vector k is
	// shifting in — both contribute, so both are kept.
	owns := make([]bool, len(vectors))
	for _, c := range base.DetectedAt {
		if c < 0 {
			continue
		}
		w := c/L - 1 // window index; -1 = leading flush
		for _, k := range []int{w - 1, w} {
			if k >= 0 && k < len(vectors) {
				owns[k] = true
			}
		}
	}
	var kept []scan.Vector
	for k, v := range vectors {
		if owns[k] {
			kept = append(kept, v)
		}
	}
	if len(kept) == len(vectors) {
		return CompactResult{Before: len(vectors), After: len(vectors), Vectors: vectors}
	}
	// Verify.
	seq2 := faultsim.Sequence(d.ConvertVectors(kept))
	again, _ := faultsim.RunCtx(context.TODO(), d.C, seq2, faults, faultsim.Options{})
	if again.NumDetected() < baseDet {
		return CompactResult{Before: len(vectors), After: len(vectors), Vectors: vectors}
	}
	return CompactResult{Before: len(vectors), After: len(kept), Vectors: kept}
}
