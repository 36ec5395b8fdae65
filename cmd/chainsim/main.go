// Command chainsim demonstrates the paper's motivation (its Figure 2):
// on a functional scan chain, the classic alternating 0011… shift test
// misses some faults that corrupt the chain. It screens the fault list,
// fault-simulates the alternating sequence, and prints, per category,
// how many chain-affecting faults the alternating test catches — and
// which hard faults escape it.
//
// Usage:
//
//	chainsim [-profile s27|s1423|…] [-scale 0.1] [-chains N] [-seed 1] [-list]
//	         [-metrics] [-tracefile run.json] [-progress] [-debug addr]
//
// The observability flags are the shared surface (see
// cmd/internal/obsflags): -metrics appends a metrics summary (screening
// and simulation counters, pool utilization), -tracefile exports the
// flight-recorder timeline as a Chrome trace-event file, -progress
// renders stamped phase lines and live progress on stderr, and -debug
// addr serves /debug/pprof and /debug/vars.
//
// SIGINT cancels the screening/simulation cooperatively and the process
// exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro"
	"repro/cmd/internal/obsflags"
	"repro/cmd/internal/specflags"
)

func main() {
	var (
		v = specflags.Register(flag.CommandLine, fsct.TaskScreen,
			specflags.Options{Profile: true, DefaultProfile: "s27", Chains: true,
				Workers: true, ScaleDefault: 0.05})
		list   = flag.Bool("list", false, "list every escaping hard fault")
		oflags = obsflags.Register(flag.CommandLine)
	)
	flag.Parse()

	sess, err := oflags.Open()
	if err != nil {
		sess.Fail(err)
	}
	defer sess.Close()
	col := sess.Collector()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// chainsim's workload is its own composite (screen + alternating
	// shift simulation + transition coverage), but circuit sourcing and
	// scan insertion come from the shared spec so its defaults cannot
	// drift from the other commands'.
	sp, err := v.Spec("")
	if err != nil {
		sess.Fail(err)
	}
	c, err := sp.BuildCircuit()
	if err != nil {
		sess.Fail(err)
	}
	d, err := sp.InsertScan(c)
	if err != nil {
		sess.Fail(err)
	}

	faults := fsct.CollapsedFaults(d.C)
	screened, err := fsct.ScreenFaultsCtx(ctx, d, faults,
		fsct.ScreenOptions{Workers: v.Workers, Obs: col})
	if err != nil {
		sess.Fail(err)
	}
	var easy, hard []fsct.Fault
	for _, s := range screened {
		switch s.Cat {
		case fsct.CatEasy:
			easy = append(easy, s.Fault)
		case fsct.CatHard:
			hard = append(hard, s.Fault)
		}
	}
	fmt.Printf("circuit %s: %d faults, %d affect the chain (%d easy, %d hard)\n",
		d.C.Name, len(faults), len(easy)+len(hard), len(easy), len(hard))

	alt := fsct.Sequence(d.AlternatingSequence(8))
	fmt.Printf("alternating shift test: %d cycles over %d chain(s), longest %d\n",
		len(alt), len(d.Chains), d.MaxChainLen())

	simOpts := fsct.SimOptions{Workers: v.Workers, Obs: col}
	easyRes, err := fsct.SimulateFaultsCtx(ctx, d.C, alt, easy, simOpts)
	if err != nil {
		sess.Fail(err)
	}
	hardRes, err := fsct.SimulateFaultsCtx(ctx, d.C, alt, hard, simOpts)
	if err != nil {
		sess.Fail(err)
	}
	fmt.Printf("  easy faults caught: %d / %d\n", easyRes.NumDetected(), len(easy))
	fmt.Printf("  hard faults caught: %d / %d  — %d ESCAPE the alternating test\n",
		hardRes.NumDetected(), len(hard), len(hardRes.Undetected()))

	tdet, ttot, err := fsct.ChainTransitionCoverageCtx(ctx, d, 8, v.Workers)
	if err != nil {
		sess.Fail(err)
	}
	fmt.Printf("  bonus: the same test covers %d / %d transition (delay) faults on the chain path\n",
		tdet, ttot)

	if escapes := hardRes.Undetected(); len(escapes) > 0 {
		fmt.Printf("\nthese faults corrupt the functional scan chain yet shift the\n")
		fmt.Printf("alternating pattern cleanly — exactly the paper's Figure-2 case:\n")
		limit := 5
		if *list {
			limit = len(escapes)
		}
		for i, idx := range escapes {
			if i >= limit {
				fmt.Printf("  … and %d more (use -list)\n", len(escapes)-limit)
				break
			}
			fmt.Printf("  %s\n", hard[idx].Describe(d.C))
		}
		fmt.Printf("\nrun the full flow (cmd/fsctest) to see them detected by\n")
		fmt.Printf("combinational ATPG + sequential fault simulation.\n")
	}
	extras := map[string]float64{
		"faults":      float64(len(faults)),
		"screen.easy": float64(len(easy)),
		"screen.hard": float64(len(hard)),
		"escapes":     float64(len(hardRes.Undetected())),
	}
	if affecting := len(easy) + len(hard); affecting > 0 {
		caught := easyRes.NumDetected() + hardRes.NumDetected()
		extras["coverage"] = 100 * float64(caught) / float64(affecting)
	}
	sess.RecordRun(d.C.Name, d.C.StructuralHash(), col.Snapshot(), extras)
	if oflags.Metrics {
		fmt.Print(fsct.FormatMetrics(col.Snapshot()))
	}
	sess.Exit(0)
}
