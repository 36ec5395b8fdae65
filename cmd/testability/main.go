// Command testability reports SCOAP controllability/observability
// measures for a circuit's scan-mode (or plain combinational) model:
// distribution of testability costs and the hardest nets — the classic
// candidates for test point insertion.
//
// Usage:
//
//	testability -profile s9234 -scale 0.1 [-scan] [-top 15]
//	testability -in circuit.bench
//	testability -profile s38584 -scan -metrics -progress
//
// The observability flags are the shared surface (see
// cmd/internal/obsflags): -metrics appends per-phase wall times
// (generate, insert, scoap), -tracefile exports the timeline as a
// Chrome trace-event file, -progress renders stamped phase lines and
// live progress on stderr, -debug addr serves /debug/pprof and
// /debug/vars.
//
// Unlike the fault-driven commands there is no -workers flag here:
// SCOAP analysis is one levelized forward pass (controllability) and
// one backward pass (observability) over the circuit, with no fault
// axis to shard — each gate's measure depends on its fanin/fanout
// measures, so the passes are inherently sequential and already take
// milliseconds on the largest suite circuits.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/cmd/internal/obsflags"
	"repro/cmd/internal/specflags"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// sess is the observability session; every exit goes through exit so
// Close runs (os.Exit skips defers and -tracefile is written on Close).
var sess *obsflags.Session

func exit(code int) {
	if sess != nil {
		sess.SetExit(code)
		if err := sess.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "testability: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

func main() {
	var (
		v = specflags.Register(flag.CommandLine, "",
			specflags.Options{In: true, Profile: true, ScaleDefault: 0.1})
		scanned = flag.Bool("scan", false, "analyze the scan-mode model after TPI (pins applied)")
		top     = flag.Int("top", 12, "how many hardest nets to list")
		oflags  = obsflags.Register(flag.CommandLine)
	)
	flag.Parse()

	var serr error
	if sess, serr = oflags.Open(); serr != nil {
		fail(serr)
	}
	defer sess.Close()
	col := sess.Collector()

	load := col.Phase("load")
	sp, err := v.Spec("")
	if err != nil {
		fail(err)
	}
	c, err := sp.BuildCircuit()
	if err != nil {
		fail(err)
	}
	load.End()

	fixed := map[netlist.SignalID]logic.V{}
	if *scanned {
		insert := col.Phase("insert")
		d, err := sp.InsertScan(c)
		if err != nil {
			fail(err)
		}
		insert.End()
		c = d.C
		for k, v := range d.Assignments {
			fixed[k] = v
		}
		fmt.Printf("analyzing scan-mode model (%d pinned inputs)\n", len(fixed))
	}

	scoap := col.Phase("scoap")
	ta, mc, err := fsct.AnalyzeTestability(c, fixed)
	if err != nil {
		fail(err)
	}
	scoap.End()

	// Distribution of per-gate combined costs.
	const inf = int64(1) << 40
	buckets := []int64{4, 8, 16, 32, 64, 128, 256}
	counts := make([]int, len(buckets)+2) // +overflow +uncontrollable/unobservable
	gates := 0
	for id := netlist.SignalID(0); int(id) < len(mc.Signals); id++ {
		if !mc.IsGate(id) {
			continue
		}
		gates++
		cost := min64(ta.CC0[id], ta.CC1[id]) + ta.CO[id]
		if cost >= inf {
			counts[len(counts)-1]++
			continue
		}
		placed := false
		for i, b := range buckets {
			if cost <= b {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(buckets)]++
		}
	}
	st := c.Stat()
	fmt.Printf("circuit %s: %d gates, %d FFs (model: %d signals)\n",
		c.Name, st.Gates, st.FFs, len(mc.Signals))
	fmt.Println("testability cost distribution (SCOAP, min(CC0,CC1)+CO):")
	lo := int64(0)
	for i, b := range buckets {
		fmt.Printf("  %5d..%-5d %6d (%4.1f%%)\n", lo, b, counts[i], 100*float64(counts[i])/float64(gates))
		lo = b + 1
	}
	fmt.Printf("  > %-9d %6d (%4.1f%%)\n", buckets[len(buckets)-1],
		counts[len(buckets)], 100*float64(counts[len(buckets)])/float64(gates))
	fmt.Printf("  untestable   %6d (%4.1f%%)  (unreachable or pinned off)\n",
		counts[len(counts)-1], 100*float64(counts[len(counts)-1])/float64(gates))

	fmt.Printf("\nhardest %d nets:\n", *top)
	for _, id := range ta.Hardest(mc, *top) {
		fmt.Printf("  %-16s CC0=%-8s CC1=%-8s CO=%s\n", mc.NameOf(id),
			fmtCost(ta.CC0[id]), fmtCost(ta.CC1[id]), fmtCost(ta.CO[id]))
	}
	sess.RecordRun(c.Name, c.StructuralHash(), col.Snapshot(), map[string]float64{
		"gates":      float64(st.Gates),
		"ffs":        float64(st.FFs),
		"untestable": float64(counts[len(counts)-1]),
	})
	if oflags.Metrics {
		fmt.Print(fsct.FormatMetrics(col.Snapshot()))
	}
	exit(0)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func fmtCost(v int64) string {
	if v >= int64(1)<<40 {
		return "inf"
	}
	return fmt.Sprintf("%d", v)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "testability: %v\n", err)
	exit(1)
}
