// Diagnosis plays failure analyst: a device with a hidden stuck-at
// fault fails its functional scan chain tests; the fault dictionary
// matches the observed responses and localizes the corruption to chain
// segments — the screening analysis run in reverse.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/fault"
)

func main() {
	circuit := fsct.GenerateCircuit(fsct.MustProfile("s3330").Scale(0.12), 21)
	design, err := fsct.InsertScan(circuit, fsct.ScanOptions{NumChains: 2, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}

	// Candidate faults: everything the screening says can touch a chain.
	all := fsct.CollapsedFaults(design.C)
	var affecting []fault.Fault
	screened, err := fsct.ScreenFaultsCtx(context.Background(), design, all, fsct.ScreenOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range screened {
		if s.Cat != fsct.CatUnaffecting {
			affecting = append(affecting, s.Fault)
		}
	}
	fmt.Printf("circuit %s: %d candidate chain faults in the dictionary\n",
		design.C.Name, len(affecting))

	dict, err := diagnose.BuildCtx(context.Background(), design, affecting, diagnose.DefaultSequences(design, 99), 1, nil)
	if err != nil {
		log.Fatal(err)
	}

	// The "silicon": pick a hidden fault the dictionary does not know we
	// chose, then diagnose it from responses alone.
	hidden := affecting[len(affecting)/3]
	fmt.Printf("hidden defect (unknown to the analyst): %s\n\n", hidden.Describe(design.C))

	device := &diagnose.SimulatedDevice{C: design.C, Hidden: &hidden}
	sig := dict.Observe(device)
	if sig == dict.GoodSignature() {
		fmt.Println("device passes the diagnostic set — defect not observable here;")
		fmt.Println("escalate to the full ATPG flow (cmd/fsctest).")
		return
	}

	matches := dict.Match(sig)
	fmt.Printf("response signature %016x matches %d candidate fault(s):\n", uint64(sig), len(matches))
	for _, m := range matches {
		marker := ""
		if m == hidden {
			marker = "   <-- the actual defect"
		}
		fmt.Printf("  %s%s\n", m.Describe(design.C), marker)
	}

	fmt.Println("\nlocalized corruption:")
	for _, sus := range dict.Localize(sig) {
		ch := &design.Chains[sus.Chain]
		fmt.Printf("  chain %d, segments %d..%d (of %d), category %v\n",
			sus.Chain, sus.LoSeg, sus.HiSeg, ch.Len(), core.Category(sus.Category))
	}
	fmt.Println("\nphysical failure analysis can now start at those chain links.")
}
