// Command faultsim is a standalone sequential fault simulator: it loads
// a circuit (.bench), a test sequence (file, or generated), and reports
// stuck-at fault coverage with an optional detection profile.
//
// Usage:
//
//	faultsim -in circuit.bench -seq tests.txt
//	faultsim -profile s9234 -scale 0.1 -random 2000 -profileplot
//	faultsim -profile s5378 -scale 0.1 -random 500 -metrics [-progress]
//	faultsim -profile s1423 -random 500 -eval hybrid
//	faultsim -profile s9234 -random 1000 -tracefile run.json -progress
//
// The flags assemble a task spec (see internal/task and
// cmd/internal/specflags) and the run is task.Run — exactly what an
// fsctd faultsim job executes, so the report is byte-identical to the
// daemon's for the same spec.
//
// The observability flags are the shared surface (see
// cmd/internal/obsflags): -metrics prints a metrics summary,
// -tracefile exports the flight-recorder timeline as a Chrome
// trace-event file, -progress renders stamped phase lines and live
// progress on stderr, and -debug addr serves /debug/pprof and
// /debug/vars.
//
// SIGINT cancels the run at the next fault batch; the partial coverage
// is printed (and the partial timeline exported) and the process exits
// non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"

	"repro"
	"repro/cmd/internal/obsflags"
	"repro/cmd/internal/specflags"
	"repro/internal/faultsim"
)

func main() {
	maxCycles := fsct.TaskDefaultsFor(fsct.TaskFaultSim).MaxCycles
	var (
		v = specflags.Register(flag.CommandLine, fsct.TaskFaultSim,
			specflags.Options{In: true, Profile: true, Workers: true, Eval: true, Cone: true})
		seqFile     = flag.String("seq", "", "test sequence file (see internal/faultsim format)")
		random      = flag.Int("random", 0, fmt.Sprintf("generate this many random cycles instead of -seq (at most %d)", maxCycles))
		uncollapsed = flag.Bool("uncollapsed", false, "use the full fault list (no equivalence collapsing)")
		profilePlot = flag.Bool("profileplot", false, "print the cumulative detection profile")
		emit        = flag.String("emit", "", "write the stimulus used to this file")
		oflags      = obsflags.Register(flag.CommandLine)
	)
	flag.Parse()

	sess, err := oflags.Open()
	if err != nil {
		sess.Fail(err)
	}
	defer sess.Close()

	sp, err := v.Spec("")
	if err != nil {
		sess.Fail(err)
	}
	sess.StampTrace(&sp)
	sp.Uncollapsed = *uncollapsed
	switch {
	case *seqFile != "":
		data, ferr := os.ReadFile(*seqFile)
		if ferr != nil {
			sess.Fail(ferr)
		}
		sp.Sequence = string(data)
	case *random > 0:
		sp.Cycles = *random
	default:
		sess.Fail(fmt.Errorf("need -seq or -random"))
	}
	if err := sp.Normalize(); err != nil {
		sess.Fail(err)
	}

	// SIGINT cancels the simulation at the next fault batch; the partial
	// coverage over the batches that completed is still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *emit != "" {
		c, cerr := sp.BuildCircuit()
		if cerr != nil {
			sess.Fail(cerr)
		}
		seq, serr := sp.Stimulus(c)
		if serr != nil {
			sess.Fail(serr)
		}
		f, ferr := os.Create(*emit)
		if ferr != nil {
			sess.Fail(ferr)
		}
		if err := faultsim.WriteSequence(f, c, seq); err != nil {
			sess.Fail(err)
		}
		f.Close()
	}

	col := sess.Collector()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	res, rerr := fsct.RunTask(sess.TrackCtx(ctx, sp.Kind, sp.Circuit), sp, nil, col)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	interrupted := errors.Is(rerr, context.Canceled)
	if rerr != nil && !interrupted {
		sess.Fail(rerr)
	}
	fmt.Print(res.Output)
	extras := make(map[string]float64, len(res.Extras)+2)
	for k, val := range res.Extras {
		extras[k] = val
	}
	// Allocation trend series for fsctstats: mallocs/bytes of the
	// simulation proper, so an allocation regression in an evaluator
	// shows up across ledgered runs without rerunning benchmarks.
	extras["sim_mallocs"] = float64(msAfter.Mallocs - msBefore.Mallocs)
	extras["sim_alloc_bytes"] = float64(msAfter.TotalAlloc - msBefore.TotalAlloc)
	sess.RecordRun(res.Circuit, res.Hash, col.Snapshot(), extras)
	if oflags.Metrics {
		fmt.Print(fsct.FormatMetrics(col.Snapshot()))
	}

	if *profilePlot {
		step := res.Cycles / 20
		if step < 1 {
			step = 1
		}
		var bounds []int
		for b := 0; b <= res.Cycles; b += step {
			bounds = append(bounds, b)
		}
		prof := res.SimResult().Profile(bounds)
		for i, b := range bounds {
			bar := 0
			if res.Detected > 0 {
				bar = prof[i] * 50 / res.Detected
			}
			fmt.Printf("%7d cyc |%-50s| %d\n", b, bars(bar), prof[i])
		}
	}
	if interrupted {
		sess.Exit(1)
	}
	sess.Exit(0)
}

func bars(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
