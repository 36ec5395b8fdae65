// Partialscan demonstrates the paper's partial-scan setting (its
// reference [3], Cheng & Agrawal): select a feedback-breaking subset of
// flip-flops, chain only those, and test the functional chain with the
// random-vector variant of step 2 ("in a partial scan environment, we
// can use a test set of random vectors") followed by grouped sequential
// ATPG.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	circuit := fsct.GenerateCircuit(fsct.MustProfile("s9234").Scale(0.08), 13)
	st := circuit.Stat()
	fmt.Printf("circuit %s: %d gates, %d flip-flops\n", circuit.Name, st.Gates, st.FFs)

	selection := fsct.SelectPartialScan(circuit, 0.4)
	fmt.Printf("partial-scan selection: %d of %d flip-flops (feedback-breaking + top-up)\n\n",
		len(selection), st.FFs)

	for _, cfg := range []struct {
		name string
		ffs  []fsct.SignalID
	}{
		{"full scan", nil},
		{"partial scan", selection},
	} {
		design, err := fsct.InsertScan(circuit, fsct.ScanOptions{
			NumChains: 1, Seed: 2, ScanFFs: cfg.ffs,
		})
		if err != nil {
			log.Fatal(err)
		}
		report, err := fsct.RunFlowCtx(context.Background(), design, fsct.FlowParams{})
		if err != nil {
			log.Fatal(err)
		}
		mode := "comb ATPG"
		if design.Partial() {
			mode = fmt.Sprintf("%d random vectors", report.Step2Vectors)
		}
		fmt.Printf("%s: chain %d FFs, %d faults, %d affecting (easy %d / hard %d)\n",
			cfg.name, design.MaxChainLen(), report.Faults, report.Affecting(),
			report.Easy, report.Hard)
		fmt.Printf("  step 2 (%s): det=%d undetectable=%d\n",
			mode, report.Step2.Detected, report.Step2.Undetectable)
		fmt.Printf("  step 3: det=%d undetectable=%d | undetected=%d\n\n",
			report.Step3.Detected, report.Step3.Undetectable, report.Undetected())
	}
	fmt.Println("partial scan shrinks the chain (and the shift overhead) at the")
	fmt.Println("price of random-only step 2 and no combinational redundancy proofs.")
}
