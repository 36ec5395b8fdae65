// Multichain studies the chain-count trade-off the paper applies to its
// larger circuits ("we use multiple scan chains for the larger circuits
// to reduce the length of the scan chain to a reasonable size"): same
// circuit, 1 / 2 / 4 chains, comparing chain length, test length, the
// grouping-parameter defaults, and the flow outcome per configuration.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	profile := fsct.MustProfile("s13207").Scale(0.12)
	circuit := fsct.GenerateCircuit(profile, 11)
	st := circuit.Stat()
	fmt.Printf("circuit %s: %d gates, %d flip-flops\n\n", circuit.Name, st.Gates, st.FFs)

	for _, chains := range []int{1, 2, 4} {
		design, err := fsct.InsertScan(circuit, fsct.ScanOptions{NumChains: chains, Seed: 2})
		if err != nil {
			log.Fatal(err)
		}
		report, err := fsct.RunFlowCtx(context.Background(), design, fsct.FlowParams{})
		if err != nil {
			log.Fatal(err)
		}
		altLen := 2*design.MaxChainLen() + 8
		// Step-2 sequence: leading flush + one window per vector + flush-out.
		testCycles := (report.Step2Vectors + 2) * design.MaxChainLen()
		fmt.Printf("chains=%d:\n", chains)
		fmt.Printf("  longest chain %d; alternating test %d cycles; step-2 test %d cycles (%d vectors)\n",
			design.MaxChainLen(), altLen, testCycles, report.Step2Vectors)
		fmt.Printf("  affecting=%d (easy %d / hard %d)\n",
			report.Affecting(), report.Easy, report.Hard)
		fmt.Printf("  step2 det=%d undetectable=%d | step3 circuits=%d+%d det=%d undetectable=%d | undetected=%d\n",
			report.Step2.Detected, report.Step2.Undetectable,
			report.COCircuits, report.FinalCOCircuits,
			report.Step3.Detected, report.Step3.Undetectable, report.Undetected())
		fmt.Println()
	}
	fmt.Println("more chains: shorter shift windows (cheaper tests, shorter")
	fmt.Println("sequences) but more multi-chain faults pinned into group 1.")
}
