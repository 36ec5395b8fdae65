// Bist runs the scan-chain test the built-in-self-test way (the paper's
// related work [2] applies functional scan inside BIST): an LFSR drives
// the scan-in pins and free inputs, a MISR compacts every output into a
// single signature, and one compare decides pass/fail. The example
// measures what the signature buys and what it costs (aliasing) against
// the per-cycle compare and against the plain alternating shift test.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/bist"
	"repro/internal/fault"
)

func main() {
	circuit := fsct.GenerateCircuit(fsct.MustProfile("s5378").Scale(0.1), 17)
	design, err := fsct.InsertScan(circuit, fsct.ScanOptions{NumChains: 1, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}

	var affecting []fault.Fault
	screened, err := fsct.ScreenFaultsCtx(context.Background(), design, fsct.CollapsedFaults(design.C), fsct.ScreenOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range screened {
		if s.Cat != fsct.CatUnaffecting {
			affecting = append(affecting, s.Fault)
		}
	}
	fmt.Printf("circuit %s: %d chain-affecting faults\n", design.C.Name, len(affecting))

	cfg := bist.Config{MISRWidth: 32}
	res, err := bist.Run(design, affecting, cfg)
	if err != nil {
		log.Fatal(err)
	}
	golden, _ := bist.GoldenSignature(design, cfg)
	fmt.Printf("golden signature: %08x\n\n", golden)

	alt := fsct.Sequence(design.AlternatingSequence(8))
	altRes, err := fsct.SimulateFaultsCtx(context.Background(), design.C, alt, affecting, fsct.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-34s %8s\n", "method", "detected")
	fmt.Printf("%-34s %8d\n", "alternating shift + compare", altRes.NumDetected())
	fmt.Printf("%-34s %8d\n", "LFSR stimulus + per-cycle compare", res.DetectedByCompare)
	fmt.Printf("%-34s %8d  (aliased: %d)\n", "LFSR stimulus + MISR signature", res.DetectedBySignature, res.Aliased)

	fmt.Println("\nthe signature keeps essentially all compare detections (32-bit")
	fmt.Println("MISR aliasing ~ 2^-32) while reducing the pass/fail decision to")
	fmt.Println("one register compare — the BIST trade the paper's reference [2]")
	fmt.Println("builds on. The category-2 escapes still need the full flow.")
}
