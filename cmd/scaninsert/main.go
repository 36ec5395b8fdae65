// Command scaninsert runs test point insertion on a circuit and reports
// the functional scan design: chain composition, functional versus
// inserted links, test points, and the scan-mode input assignments. It
// can also emit the modified circuit as a .bench file.
//
// Usage:
//
//	scaninsert -in circuit.bench [-chains 2] [-seed 1] [-out scan.bench] [-detail]
//	scaninsert -profile s5378 [-scale 0.1] ...
//	scaninsert -profile s5378 -scale 0.1 -screen -metrics -tracefile screen.json
//
// The observability flags are the shared surface (see
// cmd/internal/obsflags): -metrics appends a metrics summary after
// -screen, -tracefile exports the flight-recorder timeline as a Chrome
// trace-event file, -progress renders stamped phase lines and live
// progress on stderr, -debug addr serves /debug/pprof and /debug/vars.
//
// SIGINT cancels -screen cooperatively; the process exits non-zero.
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
			specflags.Options{In: true, Profile: true, Chains: true, Workers: true})
		out    = flag.String("out", "", "write the scan-mode circuit to this .bench file")
		detail = flag.Bool("detail", false, "print every segment")
		screen = flag.Bool("screen", false, "also screen the collapsed fault list (easy/hard split)")
		oflags = obsflags.Register(flag.CommandLine)
	)
	flag.Parse()

	sess, serr := oflags.Open()
	if serr != nil {
		sess.Fail(serr)
	}
	defer sess.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sp, err := v.Spec("")
	if err != nil {
		sess.Fail(err)
	}
	sess.StampTrace(&sp)
	c, err := sp.BuildCircuit()
	if err != nil {
		sess.Fail(err)
	}
	d, err := sp.InsertScan(c)
	if err != nil {
		sess.Fail(err)
	}

	st := d.C.Stat()
	ost := c.Stat()
	functional, inserted := d.LinkStats()
	fmt.Printf("circuit %s: %d gates, %d FFs -> scan-mode: %d gates (+%d)\n",
		c.Name, ost.Gates, ost.FFs, st.Gates, st.Gates-ost.Gates)
	fmt.Printf("chains: %d (longest %d)\n", len(d.Chains), d.MaxChainLen())
	fmt.Printf("links: %d functional, %d inserted (%.1f%% functional)\n",
		functional, inserted, 100*float64(functional)/float64(functional+inserted))
	fmt.Printf("test points: %d\n", len(d.TestPoints))
	assigned := 0
	for range d.Assignments {
		assigned++
	}
	fmt.Printf("scan-mode PI assignments: %d (incl. scan_mode=1)\n", assigned)
	// Conventional MUX-scan cost for comparison: 3 gates per flip-flop.
	convCost := 3 * ost.FFs
	ourCost := st.Gates - ost.Gates
	fmt.Printf("inserted-gate cost: %d vs %d for full MUX-scan (%.1f%%)\n",
		ourCost, convCost, 100*float64(ourCost)/float64(convCost))

	col := sess.Collector()
	extras := map[string]float64{
		"links.functional": float64(functional),
		"links.inserted":   float64(inserted),
		"test_points":      float64(len(d.TestPoints)),
	}
	if *screen {
		// The screen rides the canonical task pipeline (the design it
		// rebuilds is deterministic, so it matches d exactly); only the
		// report line here is scaninsert's own composition-flavored one.
		res, rerr := fsct.RunTask(sess.TrackCtx(ctx, sp.Kind, sp.Circuit), sp, nil, col)
		if rerr != nil {
			sess.Fail(rerr)
		}
		fmt.Printf("screening: %d faults, %d easy, %d hard (%.1f%% affect the chain)\n",
			res.Faults, res.Easy, res.Hard, 100*float64(res.Easy+res.Hard)/float64(res.Faults))
		extras["faults"] = float64(res.Faults)
		extras["screen.easy"] = float64(res.Easy)
		extras["screen.hard"] = float64(res.Hard)
		if oflags.Metrics {
			fmt.Print(fsct.FormatMetrics(col.Snapshot()))
		}
	}
	sess.RecordRun(d.C.Name, d.C.StructuralHash(), col.Snapshot(), extras)

	if *detail {
		for ci := range d.Chains {
			ch := &d.Chains[ci]
			fmt.Printf("\nchain %d (scan-in %s):\n", ch.ID, d.C.NameOf(ch.ScanIn))
			for si := range ch.Segment {
				seg := &ch.Segment[si]
				inv := ""
				if seg.Invert {
					inv = " (inverting)"
				}
				fmt.Printf("  %3d -> %-12s %-10s %d gates, %d sides%s\n",
					si, d.C.NameOf(seg.To), seg.Kind, len(seg.Path), len(seg.Sides), inv)
			}
		}
		fmt.Println("\nassignments:")
		for _, in := range d.C.Inputs {
			if v, ok := d.Assignments[in]; ok {
				fmt.Printf("  %s = %v\n", d.C.NameOf(in), v)
			}
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			sess.Fail(err)
		}
		if err := fsct.WriteBench(f, d.C); err != nil {
			sess.Fail(err)
		}
		f.Close()
		fmt.Printf("\nscan-mode circuit written to %s\n", *out)
	}
	sess.Exit(0)
}
