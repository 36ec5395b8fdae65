// Command fsctest reproduces the paper's experiments: it generates the
// twelve-circuit suite, inserts functional scan chains via TPI, runs the
// three-step scan-chain testing flow, and prints Tables 1-3 and Figure 5
// in the paper's layout.
//
// Usage:
//
//	fsctest [-scale 0.1] [-circuits s1423,s5378] [-chains N] [-seed 1]
//	        [-table all|1|2|3] [-fig5 s38584] [-v]
//	        [-eval auto|compiled|hybrid]
//	        [-metrics] [-tracefile run.json] [-progress]
//	        [-debug addr] [-why fault]
//
// Each selected circuit runs as one flow-kind task spec through the
// canonical task layer (internal/task) — the same pipeline fsctd flow
// jobs execute, so per-circuit reports are byte-identical to the
// daemon's for the same spec.
//
// SIGINT (ctrl-C) cancels the run cooperatively: completed circuits and
// the partial report of the interrupted one are still printed, the
// flight-recorder timeline collected so far is still exported to
// -tracefile, and the process exits non-zero.
//
// With -metrics each run is instrumented and the output switches to a
// JSON array of per-circuit reports, each embedding its metrics
// snapshot (phase wall times, fault-category counters, ATPG and
// fault-simulation statistics, worker-pool utilization); -tracefile
// writes the run's flight-recorder timeline as a Chrome trace-event
// file, -progress streams stamped phase lines, each phase's summary
// and live per-phase progress to stderr, and -debug addr serves
// /debug/pprof and /debug/vars while running.
//
// -why <fault> replays the flight recorder after each run and explains
// what the flow decided about the named fault (match by the Describe
// rendering, e.g. "G10 s-a-1", or by fault-list index): its screening
// category with the implicating net and chain locations, every ATPG
// attempt, and the detecting cycle. With -metrics the explanation
// embeds in the JSON report's provenance section instead.
//
// Absolute numbers differ from the paper (synthetic circuits, different
// ATPG engines, modern hardware); the shapes are the reproduction target.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro"
	"repro/cmd/internal/obsflags"
	"repro/cmd/internal/specflags"
)

func main() {
	var (
		v = specflags.Register(flag.CommandLine, fsct.TaskFlow,
			specflags.Options{Chains: true, Workers: true, Eval: true})
		circuits = flag.String("circuits", "", "comma-separated circuit names (default: whole suite)")
		table    = flag.String("table", "all", "which table to print: all, 1, 2, 3")
		fig5     = flag.String("fig5", "", "circuit whose detection profile to plot (default: largest run)")
		verbose  = flag.Bool("v", false, "print per-circuit reports while running")
		why      = flag.String("why", "", "explain one fault from the flight recorder (Describe string or fault index)")
		oflags   = obsflags.Register(flag.CommandLine)
	)
	flag.Parse()

	sess, err := oflags.Open()
	if err != nil {
		sess.Fail(err)
	}
	defer sess.Close()
	if _, err := fsct.ParseEvalBackend(v.Eval); err != nil {
		sess.Fail(err)
	}

	// SIGINT cancels the flow mid-step; whatever completed is still
	// reported below, marked interrupted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *why != "" {
		sess.EnsureRecorder() // provenance replays the journal
	}

	want := map[string]bool{}
	if *circuits != "" {
		for _, n := range strings.Split(*circuits, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}

	interrupted := false
	var reports []*fsct.Report
	for _, p := range fsct.Suite() {
		if len(want) > 0 && !want[p.Name] {
			continue
		}
		col := sess.Collector()
		col.Notef("run %s (scale %g, seed %d)", p.Name, v.Scale, v.Seed)
		sp, serr := v.Spec(p.Name)
		if serr != nil {
			sess.Fail(fmt.Errorf("%s: %w", p.Name, serr))
		}
		sess.StampTrace(&sp)
		// The journal is shared across circuits; remember where this
		// circuit's events start so -why replays only its own slice
		// (fault keys are circuit-local signal IDs).
		mark := sess.Recorder().Len()
		res, err := fsct.RunTask(sess.TrackCtx(ctx, sp.Kind, sp.Circuit), sp, nil, col)
		canceled := errors.Is(err, context.Canceled)
		if err != nil && !canceled {
			sess.Fail(fmt.Errorf("%s: %w", p.Name, err))
		}
		var rep *fsct.Report
		var d *fsct.Design
		if res != nil {
			rep, d = res.Report, res.Design
		}
		if rep != nil {
			// One ledger record per circuit; interrupted circuits land
			// with whatever they completed.
			sess.RecordRun(rep.Circuit, rep.StructuralHash, rep.Metrics, res.Extras)
		}
		if rep != nil && *why != "" && d != nil {
			events := sess.Recorder().Snapshot()
			if mark <= len(events) {
				events = events[mark:]
			}
			prov, werr := explain(d, events, *why)
			if werr != nil {
				sess.Fail(fmt.Errorf("%s: -why: %w", p.Name, werr))
			}
			rep.Provenance = append(rep.Provenance, prov)
		}
		if canceled {
			// Keep the partial report; the tables below cover what ran.
			fmt.Fprintf(os.Stderr, "fsctest: %s: interrupted, reporting partial results\n", p.Name)
			interrupted = true
			if rep != nil {
				reports = append(reports, rep)
			}
			break
		}
		reports = append(reports, rep)
		if *verbose {
			fmt.Print(fsct.FormatReport(rep))
			if rep.Metrics != nil {
				fmt.Print(fsct.FormatMetrics(rep.Metrics))
			}
		}
	}
	if len(reports) == 0 {
		sess.Fail(errors.New("no circuits selected"))
	}

	if oflags.Metrics {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			sess.Fail(err)
		}
		if interrupted {
			sess.Exit(1)
		}
		sess.Exit(0)
	}

	if *why != "" {
		for _, r := range reports {
			for _, prov := range r.Provenance {
				fmt.Printf("%s: %s", r.Circuit, prov.Format())
			}
		}
	}

	switch *table {
	case "1":
		fmt.Print(fsct.Table1(reports))
	case "2":
		fmt.Print(fsct.Table2(reports))
	case "3":
		fmt.Print(fsct.Table3(reports))
	case "all":
		fmt.Print(fsct.Table1(reports))
		fmt.Println()
		fmt.Print(fsct.Table2(reports))
		fmt.Println()
		fmt.Print(fsct.Table3(reports))
		fmt.Println()
		fmt.Print(fsct.Figure5(pickFig5(reports, *fig5)))
	default:
		sess.Fail(fmt.Errorf("unknown -table %q", *table))
	}
	if *fig5 != "" && *table != "all" {
		fmt.Println()
		fmt.Print(fsct.Figure5(pickFig5(reports, *fig5)))
	}
	if interrupted {
		fmt.Println("\n(interrupted — tables cover the circuits that completed, plus one partial run)")
		sess.Exit(1)
	}
	sess.Exit(0)
}

// explain resolves the -why selector — a fault-list index or the exact
// Describe rendering (e.g. "G10 s-a-1") — against the design's
// collapsed fault list and replays the journal for it.
func explain(d *fsct.Design, events []fsct.JournalEvent, sel string) (*fsct.Provenance, error) {
	faults := fsct.CollapsedFaults(d.C)
	if idx, err := strconv.Atoi(sel); err == nil {
		if idx < 0 || idx >= len(faults) {
			return nil, fmt.Errorf("fault index %d out of range [0,%d)", idx, len(faults))
		}
		return fsct.ExplainFault(d, events, faults[idx]), nil
	}
	for _, f := range faults {
		if f.Describe(d.C) == sel {
			return fsct.ExplainFault(d, events, f), nil
		}
	}
	return nil, fmt.Errorf("no fault %q in the collapsed fault list (try an index < %d)", sel, len(faults))
}

// pickFig5 selects the named circuit's report, defaulting to the one
// with the most faults (the paper plots s38584, its largest).
func pickFig5(reports []*fsct.Report, name string) *fsct.Report {
	if name != "" {
		for _, r := range reports {
			if r.Circuit == name {
				return r
			}
		}
	}
	best := reports[0]
	for _, r := range reports[1:] {
		if r.Faults > best.Faults {
			best = r
		}
	}
	return best
}
