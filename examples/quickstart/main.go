// Quickstart: generate a small circuit, insert a functional scan chain
// with TPI, run the paper's three-step scan-chain testing flow, and
// print the report.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// A small synthetic circuit in the shape of the ISCAS'89 s1423
	// benchmark, at 20% of its published size.
	profile := fsct.MustProfile("s1423").Scale(0.2)
	circuit := fsct.GenerateCircuit(profile, 1)
	st := circuit.Stat()
	fmt.Printf("generated %s: %d gates, %d flip-flops, %d PIs, %d POs\n",
		circuit.Name, st.Gates, st.FFs, st.Inputs, st.Outputs)

	// Insert functional scan: TPI sensitizes flip-flop-to-flip-flop
	// paths through the mission logic; the rest fall back to inserted
	// mux links.
	design, err := fsct.InsertScan(circuit, fsct.ScanOptions{NumChains: 1, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	functional, inserted := design.LinkStats()
	fmt.Printf("scan inserted: %d chains, %d functional links, %d inserted links, %d test points\n",
		len(design.Chains), functional, inserted, len(design.TestPoints))

	// Run the flow: screening, alternating sequence, combinational ATPG
	// with sequential fault simulation, grouped sequential ATPG.
	report, err := fsct.RunFlowCtx(context.Background(), design, fsct.FlowParams{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(fsct.FormatReport(report))

	if report.Undetected() == 0 {
		fmt.Println("\nevery chain-affecting fault is detected or proven undetectable —")
		fmt.Println("the functional scan chain can be trusted for subsequent testing.")
	}
}
