// Orderingsweep explores the chain-ordering flexibility the paper leaves
// to the designer ("different orderings will lead to faults affecting
// the scan chain in different locations, and thus potentially increasing
// or decreasing the fault coverage"): it inserts scan with several
// orderings (seeds) on the same circuit and compares the screening
// split, the share of functional links, and the flow outcome.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	profile := fsct.MustProfile("s3330").Scale(0.15)
	circuit := fsct.GenerateCircuit(profile, 7)
	st := circuit.Stat()
	fmt.Printf("circuit %s: %d gates, %d flip-flops\n\n", circuit.Name, st.Gates, st.FFs)

	fmt.Printf("%-6s %6s %6s %7s %7s %8s %8s %10s\n",
		"seed", "func%", "tps", "easy", "hard", "s2 det", "s3 det", "undetected")
	for seed := int64(1); seed <= 5; seed++ {
		design, err := fsct.InsertScan(circuit, fsct.ScanOptions{NumChains: 1, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		report, err := fsct.RunFlowCtx(context.Background(), design, fsct.FlowParams{})
		if err != nil {
			log.Fatal(err)
		}
		functional, inserted := design.LinkStats()
		fmt.Printf("%-6d %5.1f%% %6d %7d %7d %8d %8d %10d\n",
			seed,
			100*float64(functional)/float64(functional+inserted),
			len(design.TestPoints),
			report.Easy, report.Hard,
			report.Step2.Detected, report.Step3.Detected,
			report.Undetected())
	}
	fmt.Println("\nthe ordering changes which faults touch the chain and where,")
	fmt.Println("shifting work between the alternating test, step 2 and step 3.")

	best, seed, costs, err := fsct.OptimizeScanOrdering(circuit,
		fsct.ScanOptions{NumChains: 1}, []int64{1, 2, 3, 4, 5})
	if err != nil {
		log.Fatal(err)
	}
	functional, inserted := best.LinkStats()
	fmt.Printf("\nordering optimizer: candidate costs %v -> seed %d wins "+
		"(%d functional / %d inserted links, %d test points)\n",
		costs, seed, functional, inserted, len(best.TestPoints))
}
