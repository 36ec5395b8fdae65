// Command mktables rebuilds the EXPERIMENTS.md tables from one or more
// `fsctest -v` logs: it parses the per-circuit report blocks and prints
// Tables 1-3 with totals and the headline undetected percentages.
//
// Usage:
//
//	mktables full_run.txt big3_run.txt
//	mktables -metrics full_run.txt
//
// The observability flags are the shared surface (see
// cmd/internal/obsflags). The tables stay on stdout; -metrics prints
// the parse/render phase timings to stderr, -tracefile exports the
// timeline as a Chrome trace-event file, -progress renders stamped
// phase lines and live progress, -debug addr serves /debug/pprof and
// /debug/vars.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"regexp"
	"strconv"

	"repro"
	"repro/cmd/internal/obsflags"
)

type row struct {
	name                       string
	gates, ffs, chains, faults int
	easy, hard                 int
	scpu                       string
	vec, s2d, s2u, s2x         int
	s2cpu                      string
	circ                       string
	s3d, s3u, s3x              int
	s3cpu                      string
}

var (
	reCirc = regexp.MustCompile(`^circuit (\S+): (\d+) gates, (\d+) FFs, (\d+) chains, (\d+) faults`)
	reScr  = regexp.MustCompile(`screening: easy=(\d+) .* hard=(\d+) .*\[(.*)\]`)
	reS2   = regexp.MustCompile(`step 2: (\d+) vectors; det=(\d+) undetectable=(\d+) undetected=(\d+)\s+\[(.*)\]`)
	reS3   = regexp.MustCompile(`step 3: (\d+)\+(\d+) C/O circuits; det=(\d+) undetectable=(\d+) undetected=(\d+)\s+\[(.*)\]`)
)

func atoi(s string) int { n, _ := strconv.Atoi(s); return n }

func main() {
	oflags := obsflags.Register(flag.CommandLine)
	flag.Parse()

	sess, err := oflags.Open()
	if err != nil {
		sess.Fail(err)
	}
	defer sess.Close()
	col := sess.Collector()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	parse := col.Phase("parse")
	var rows []*row
	var cur *row
	for _, f := range flag.Args() {
		if ctx.Err() != nil {
			sess.Fail(ctx.Err())
		}
		fh, err := os.Open(f)
		if err != nil {
			sess.Fail(err)
		}
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			line := sc.Text()
			if m := reCirc.FindStringSubmatch(line); m != nil {
				cur = &row{name: m[1], gates: atoi(m[2]), ffs: atoi(m[3]), chains: atoi(m[4]), faults: atoi(m[5])}
				rows = append(rows, cur)
			} else if cur == nil {
				continue
			} else if m := reScr.FindStringSubmatch(line); m != nil {
				cur.easy, cur.hard, cur.scpu = atoi(m[1]), atoi(m[2]), m[3]
			} else if m := reS2.FindStringSubmatch(line); m != nil {
				cur.vec, cur.s2d, cur.s2u, cur.s2x, cur.s2cpu = atoi(m[1]), atoi(m[2]), atoi(m[3]), atoi(m[4]), m[5]
			} else if m := reS3.FindStringSubmatch(line); m != nil {
				cur.circ = m[1] + "+" + m[2]
				cur.s3d, cur.s3u, cur.s3x, cur.s3cpu = atoi(m[3]), atoi(m[4]), atoi(m[5]), m[6]
			}
		}
		if err := sc.Err(); err != nil {
			sess.Fail(fmt.Errorf("%s: %w", f, err))
		}
		fh.Close()
	}
	parse.End()
	col.Counter("mktables.rows").Add(int64(len(rows)))

	render := col.Phase("render")
	tg, tf, tfl, tc, te, th := 0, 0, 0, 0, 0, 0
	var a, b, cx, d2, e2, f2, tv int
	fmt.Printf("TABLE1\n%-10s %8s %6s %8s %7s\n", "name", "#gates", "#FFs", "#faults", "#chains")
	for _, r := range rows {
		fmt.Printf("%-10s %8d %6d %8d %7d\n", r.name, r.gates, r.ffs, r.faults, r.chains)
		tg += r.gates
		tf += r.ffs
		tfl += r.faults
		tc += r.chains
	}
	fmt.Printf("%-10s %8d %6d %8d %7d\n", "total", tg, tf, tfl, tc)
	fmt.Printf("\nTABLE2\n%-10s %8s %7s %8s %7s %12s\n", "name", "#easy", "(%)", "#hard", "(%)", "CPU")
	for _, r := range rows {
		fmt.Printf("%-10s %8d %6.1f%% %8d %6.1f%% %12s\n", r.name, r.easy,
			100*float64(r.easy)/float64(r.faults), r.hard, 100*float64(r.hard)/float64(r.faults), r.scpu)
		te += r.easy
		th += r.hard
	}
	fmt.Printf("%-10s %8d %6.1f%% %8d %6.1f%%\n", "total", te,
		100*float64(te)/float64(tfl), th, 100*float64(th)/float64(tfl))
	fmt.Printf("\nTABLE3\n%-10s | %5s %6s %8s %7s %10s | %6s | %6s %8s %7s %10s\n",
		"name", "#vec", "det", "undetbl", "undet", "CPU", "#circ", "det", "undetbl", "undet", "CPU")
	for _, r := range rows {
		fmt.Printf("%-10s | %5d %6d %8d %7d %10s | %6s | %6d %8d %7d %10s\n",
			r.name, r.vec, r.s2d, r.s2u, r.s2x, r.s2cpu, r.circ, r.s3d, r.s3u, r.s3x, r.s3cpu)
		a += r.s2d
		b += r.s2u
		cx += r.s2x
		d2 += r.s3d
		e2 += r.s3u
		f2 += r.s3x
		tv += r.vec
	}
	fmt.Printf("%-10s | %5d %6d %8d %7d %10s | %6s | %6d %8d %7d\n", "total", tv, a, b, cx, "", "", d2, e2, f2)
	und := f2
	fmt.Printf("\nHeadline: undetected = %d = %.4f%% of all faults = %.4f%% of chain-affecting faults\n",
		und, 100*float64(und)/float64(tfl), 100*float64(und)/float64(te+th))
	fmt.Printf("(paper: 0.006%% of all faults, 0.022%% of chain-affecting faults)\n")
	render.End()
	// No circuit (the input is parsed logs), so the ledger record is
	// keyed by CLI alone.
	sess.RecordRun("", 0, col.Snapshot(), map[string]float64{"rows": float64(len(rows))})
	if oflags.Metrics {
		// stderr: stdout is the tables artifact pasted into EXPERIMENTS.md.
		fmt.Fprint(os.Stderr, fsct.FormatMetrics(col.Snapshot()))
	}
	sess.Exit(0)
}
