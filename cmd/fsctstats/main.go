// Command fsctstats queries the JSONL run ledger the other commands
// append to with -ledger (see cmd/internal/obsflags and
// internal/ledger): every instrumented run of fsctest, faultsim,
// scaninsert, chainsim, diagnose, testability or mktables leaves one
// record per circuit, carrying the flattened metrics snapshot, the
// circuit's structural hash, the flags used, the exit status and the
// wall time.
//
// Usage:
//
//	fsctstats list  -ledger runs.jsonl [-circuit s9234] [-cli fsctest] [-since 24h] [-last 20] [-json]
//	fsctstats trend -ledger runs.jsonl [filters] [-json]
//	fsctstats check -ledger runs.jsonl [filters] [-window 5] [-keys coverage,wall_ns] [-threshold 0.1] [-v] [-strict] [-json]
//	fsctstats watch [-addr localhost:8341] [-interval 1s] [-once]
//	fsctstats trace (-otlp spans.json | -job j000001 [-addr localhost:8341]) [-top 10] [-json]
//
// list prints the matching records, newest last. trend groups them into
// per-(CLI, circuit) series and shows the cross-run evolution of the
// headline numbers: runtime, fault coverage and engine cache hit rate.
// check is the regression gate: within each series it compares the
// newest run against the rolling median of up to -window prior runs and
// exits non-zero when any checked metric drifts beyond its allowance in
// either direction — a coverage drop is as suspicious as a runtime
// rise. -keys entries match a flattened metric key exactly or by
// final segment, and -threshold overrides every per-key
// allowance. Series with no prior runs pass vacuously; an empty match
// set warns on stderr (and fails under -strict, so CI catches a
// mistyped ledger path).
//
// watch is the live counterpart: instead of the ledger it polls a
// running fsctd daemon's /api/v1/jobs and /api/v1/server endpoints and
// renders a terminal dashboard — one block per job with its unit's
// completion bar, the finished job's faults-per-second throughput, and
// any unit the straggler watchdog flagged highlighted as STALLED. -once prints a single frame and exits (scripts, CI).
//
// trace analyzes an exported span tree — a CLI run's -otlpfile, or a
// job's tree fetched live from fsctd's /api/v1/trace/{job} — and
// reports the critical path (the span chain that bounds wall time, the
// last finisher at every level), per-phase self-vs-child time, and
// straggler attribution: which unit held the run up and in which phase
// its time went.
//
// -since accepts a Go duration ("36h") or an RFC 3339 timestamp.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ledger"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] == "-h" || os.Args[1] == "-help" || os.Args[1] == "--help" {
		usage()
		os.Exit(2)
	}
	sub := os.Args[1]
	if sub == "watch" { // live daemon dashboard: own flags, no ledger
		os.Exit(runWatchCmd(os.Args[2:]))
	}
	if sub == "trace" { // span-tree analysis: own flags, no ledger
		os.Exit(runTraceCmd(os.Args[2:]))
	}
	fs := flag.NewFlagSet("fsctstats "+sub, flag.ExitOnError)
	var (
		path    = fs.String("ledger", "", "run ledger `file` to query (required)")
		circuit = fs.String("circuit", "", "only records for this circuit")
		cli     = fs.String("cli", "", "only records appended by this command")
		since   = fs.String("since", "", "only records newer than this (duration like \"36h\", or RFC 3339)")
		last    = fs.Int("last", 0, "only the newest N matching records")
		jsonOut = fs.Bool("json", false, "machine-readable JSON output")
		// check only:
		window    = fs.Int("window", 5, "check: rolling-median window of prior runs")
		keys      = fs.String("keys", "", "check: comma-separated metric keys (default coverage,wall_ns,cache_hit_rate)")
		threshold = fs.Float64("threshold", 0, "check: override every per-key allowance with this ratio (0.1 = ±10%)")
		verbose   = fs.Bool("v", false, "check: print every comparison, not just drifts")
		strict    = fs.Bool("strict", false, "check: exit non-zero when no records match (an empty gate usually means a broken -ledger path or filter)")
	)
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if *path == "" {
		fail(fmt.Errorf("-ledger is required"))
	}

	filter := ledger.Filter{CLI: *cli, Circuit: *circuit, Last: *last}
	if *since != "" {
		t, err := parseSince(*since)
		if err != nil {
			fail(err)
		}
		filter.Since = t
	}
	recs, err := ledger.Read(*path)
	if err != nil {
		fail(err)
	}
	recs = filter.Apply(recs)

	switch sub {
	case "list":
		err = runList(os.Stdout, recs, *jsonOut)
	case "trend":
		err = runTrend(os.Stdout, recs, *jsonOut)
	case "check":
		// An empty gate passes vacuously, which hides a mistyped path or
		// an over-narrow filter from CI. Warn always; -strict turns the
		// warning into a failure.
		if len(recs) == 0 {
			fmt.Fprintln(os.Stderr, "fsctstats: warning: no ledger records match (empty ledger, or filters excluded everything) — the check gates nothing")
			if *strict {
				os.Exit(1)
			}
		}
		var drifted bool
		drifted, err = runCheck(os.Stdout, recs, checkOptions{
			Keys:      parseKeys(*keys),
			Window:    *window,
			Threshold: *threshold,
			JSON:      *jsonOut,
			Verbose:   *verbose,
		})
		if err == nil && drifted {
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "fsctstats: unknown subcommand %q\n\n", sub)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}
}

// parseSince accepts a relative duration ("36h") or an absolute
// RFC 3339 timestamp.
func parseSince(s string) (time.Time, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return time.Now().Add(-d), nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("-since %q: want a duration (\"36h\") or an RFC 3339 time", s)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: fsctstats <list|trend|check|watch|trace> [flags]

  list   print the matching ledger records, newest last
  trend  per-(CLI, circuit) evolution of runtime, coverage, cache hit rate
  check  flag metric drift of the newest run vs the rolling median of
         prior runs; exits 1 on drift (-strict: also on an empty match)
  watch  live terminal dashboard over a running fsctd daemon's job
         views: per-job unit progress bars, throughput and
         highlighted stragglers
  trace  critical path, per-phase self time and straggler attribution
         over an exported span tree (-otlp file, or -job from a daemon)

list, trend and check query a -ledger file; watch and trace poll -addr.
run 'fsctstats <subcommand> -h' for the subcommand's flags
`)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "fsctstats: %v\n", err)
	os.Exit(1)
}
