// Command diagnose plays back a failing device against a scan design's
// fault dictionary and localizes the chain corruption. The failing
// device is simulated: -inject picks the hidden fault by index (or use
// -worst to scan every candidate and report dictionary resolution
// statistics).
//
// Usage:
//
//	diagnose -profile s3330 -scale 0.1 -chains 2 -inject 7
//	diagnose -profile s9234 -scale 0.05 -stats
//	diagnose -profile s3330 -scale 0.1 -stats -metrics -tracefile dict.json
//
// The observability flags are the shared surface (see
// cmd/internal/obsflags): -metrics appends a metrics summary (the
// "dictionary" phase, screening counters, pool utilization),
// -tracefile exports the flight-recorder timeline as a Chrome
// trace-event file, -progress renders stamped phase lines and live
// progress on stderr, and -debug addr serves /debug/pprof and
// /debug/vars.
//
// SIGINT cancels screening, dictionary building, and the -stats sweep
// cooperatively; the process exits non-zero.
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
	"repro/internal/diagnose"
	"repro/internal/task"
)

func main() {
	var (
		v = specflags.Register(flag.CommandLine, fsct.TaskDiagnose,
			specflags.Options{Profile: true, DefaultProfile: "s3330", Chains: true, Workers: true})
		inject = flag.Int("inject", 0, "index of the hidden fault among chain-affecting candidates")
		stats  = flag.Bool("stats", false, "diagnose every candidate and report resolution statistics")
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

	sp, err := v.Spec("")
	if err != nil {
		sess.Fail(err)
	}
	sess.StampTrace(&sp)

	// -stats is exactly a diagnose-kind task: the report (dictionary
	// header plus resolution statistics) and the ledger extras come from
	// the canonical pipeline, byte-identical to an fsctd diagnose job.
	if *stats {
		res, rerr := fsct.RunTask(sess.TrackCtx(ctx, sp.Kind, sp.Circuit), sp, nil, col)
		if rerr != nil {
			sess.Fail(rerr)
		}
		fmt.Print(res.Output)
		sess.RecordRun(res.Circuit, res.Hash, col.Snapshot(), res.Extras)
		if oflags.Metrics {
			fmt.Print(fsct.FormatMetrics(col.Snapshot()))
		}
		sess.Exit(0)
	}

	// -inject shares the task layer's front half (screen + dictionary)
	// and then plays back the one hidden fault interactively.
	d, _, affecting, dict, err := task.Diagnosis(ctx, sp, nil, col)
	if err != nil {
		sess.Fail(err)
	}
	fmt.Print(task.FormatDiagnoseHeader(d.C.Name, len(affecting)))

	// done finishes the run: the ledger record is queued and the metrics
	// summary prints after the diagnosis output so the tables stay the
	// headline.
	extras := map[string]float64{}
	done := func() {
		sess.RecordRun(d.C.Name, d.C.StructuralHash(), col.Snapshot(), extras)
		if oflags.Metrics {
			fmt.Print(fsct.FormatMetrics(col.Snapshot()))
		}
		sess.Exit(0)
	}

	if *inject < 0 || *inject >= len(affecting) {
		sess.Fail(fmt.Errorf("-inject out of range [0,%d)", len(affecting)))
	}
	hidden := affecting[*inject]
	fmt.Printf("hidden defect: %s\n", hidden.Describe(d.C))
	sig := dict.Observe(&diagnose.SimulatedDevice{C: d.C, Hidden: &hidden})
	if sig == dict.GoodSignature() {
		fmt.Println("device matches the fault-free signature on the diagnostic set;")
		fmt.Println("the defect needs the full ATPG flow to even show (see cmd/fsctest)")
		done()
	}
	fmt.Printf("observed signature %016x\n", uint64(sig))
	for _, m := range dict.Match(sig) {
		mark := ""
		if m == hidden {
			mark = "   <-- injected"
		}
		fmt.Printf("  candidate: %s%s\n", m.Describe(d.C), mark)
	}
	for _, sus := range dict.Localize(sig) {
		fmt.Printf("  suspect region: chain %d segments %d..%d (%v)\n",
			sus.Chain, sus.LoSeg, sus.HiSeg, sus.Category)
	}
	done()
}
