// Faultescape reproduces the paper's Figure-2 motivation end to end: it
// finds a concrete stuck-at fault that corrupts a functional scan chain
// yet passes the classic alternating 0011… shift test, shows the escape
// cycle by cycle at the scan-out, and then shows the paper's flow
// producing a test that catches it.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// A mid-sized synthetic circuit with one functional scan chain.
	circuit := fsct.GenerateCircuit(fsct.MustProfile("s5378").Scale(0.08), 3)
	design, err := fsct.InsertScan(circuit, fsct.ScanOptions{NumChains: 1, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	faults := fsct.CollapsedFaults(design.C)
	screened, err := fsct.ScreenFaultsCtx(context.Background(), design, faults, fsct.ScreenOptions{})
	if err != nil {
		log.Fatal(err)
	}
	var hard []fsct.Fault
	for _, s := range screened {
		if s.Cat == fsct.CatHard {
			hard = append(hard, s.Fault)
		}
	}
	fmt.Printf("circuit %s: %d faults, %d are category-2 (hard) chain faults\n",
		design.C.Name, len(faults), len(hard))

	// Fault-simulate the alternating shift test over the hard faults.
	alt := fsct.Sequence(design.AlternatingSequence(8))
	res, err := fsct.SimulateFaultsCtx(context.Background(), design.C, alt, hard, fsct.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}
	escapes := res.Undetected()
	if len(escapes) == 0 {
		fmt.Println("no hard fault escapes the alternating test on this seed;")
		fmt.Println("try another seed — escapes are the common case on larger circuits")
		return
	}
	victim := hard[escapes[0]]
	fmt.Printf("\nESCAPE: %s corrupts the scan chain but the %d-cycle\n",
		victim.Describe(design.C), len(alt))
	fmt.Printf("alternating sequence never observes a definite mismatch\n")
	fmt.Printf("(the paper's Figure 2: the corrupted chain still shifts a\n")
	fmt.Printf("pattern the test cannot distinguish from the good one).\n")

	// Now run the real flow and verify the victim is handled.
	report, err := fsct.RunFlowCtx(context.Background(), design, fsct.FlowParams{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nflow result: step2 det=%d undetectable=%d; step3 det=%d undetectable=%d; undetected=%d\n",
		report.Step2.Detected, report.Step2.Undetectable,
		report.Step3.Detected, report.Step3.Undetectable, report.Undetected())

	still := false
	for _, f := range report.UndetectedFaults {
		if f == victim {
			still = true
		}
	}
	if still {
		fmt.Printf("the escape %s remained undetected (rare; raise effort limits)\n",
			victim.Describe(design.C))
	} else {
		fmt.Printf("the escape %s is covered by the flow — either detected by a\n",
			victim.Describe(design.C))
		fmt.Println("generated test or proven undetectable in scan mode.")
	}
}
