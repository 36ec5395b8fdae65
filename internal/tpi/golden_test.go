package tpi_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/task"
	"repro/internal/tpi"
)

var update = flag.Bool("update", false, "rewrite testdata/insert_golden.txt from the current builder")

const insertGolden = "testdata/insert_golden.txt"

// designDigest hashes everything scan insertion decides: the netlist
// text, the derived level order, fanouts and levels, the scan-mode
// assignments, every chain with its segments, the test points and the
// non-scan flip-flops.
func designDigest(t *testing.T, d *scan.Design) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := bench.Write(h, d.C); err != nil {
		t.Fatal(err)
	}
	ids := func(tag string, s []netlist.SignalID) {
		fmt.Fprintf(h, "%s%d:", tag, len(s))
		for _, id := range s {
			fmt.Fprintf(h, "%d,", id)
		}
	}
	ids("order", d.C.Order)
	for i, fo := range d.C.Fanouts {
		ids(fmt.Sprint("fo", i), fo)
	}
	fmt.Fprintf(h, "level%v", d.C.Level)
	asn := make([]netlist.SignalID, 0, len(d.Assignments))
	for id := range d.Assignments {
		asn = append(asn, id)
	}
	sort.Slice(asn, func(i, j int) bool { return asn[i] < asn[j] })
	for _, id := range asn {
		fmt.Fprintf(h, "a%d=%d;", id, d.Assignments[id])
	}
	fmt.Fprintf(h, "sm%d;", d.ScanModePI)
	for _, ch := range d.Chains {
		fmt.Fprintf(h, "chain%d in%d;", ch.ID, ch.ScanIn)
		ids("ffs", ch.FFs)
		for _, seg := range ch.Segment {
			fmt.Fprintf(h, "seg to%d inv%v kind%d sides", seg.To, seg.Invert, seg.Kind)
			for _, s := range seg.Sides {
				fmt.Fprintf(h, "(%d.%d=%d)", s.Gate, s.Pin, s.Want)
			}
			ids("path", seg.Path)
		}
	}
	ids("tp", d.TestPoints)
	ids("ns", d.NonScan)
	return h.Sum64()
}

// goldenLine renders one design as a golden line: its label, a few
// readable counts and the full digest.
func goldenLine(t *testing.T, w io.Writer, label string, d *scan.Design) {
	t.Helper()
	fn, ins := d.LinkStats()
	fmt.Fprintf(w, "%s signals=%d chains=%d functional=%d inserted=%d tps=%d asn=%d %016x\n",
		label, len(d.C.Signals), len(d.Chains), fn, ins, len(d.TestPoints), len(d.Assignments), designDigest(t, d))
}

// TestInsertGolden pins scan insertion byte for byte: every suite
// profile at three scales and three seeds, s27 with one and two
// chains, and one partial-scan design must digest exactly as the
// committed golden says. Run with -update to rewrite the golden after
// an intended change to what insertion builds.
func TestInsertGolden(t *testing.T) {
	var w strings.Builder
	for _, p := range gen.Suite() {
		for _, scale := range []float64{0.02, 0.07, 0.1} {
			for seed := int64(1); seed <= 3; seed++ {
				c := gen.Generate(p.Scale(scale), seed)
				d, err := tpi.Insert(c, tpi.Options{NumChains: task.DefaultChains(len(c.FFs)), Seed: seed})
				if err != nil {
					t.Fatalf("%s@%v seed %d: %v", p.Name, scale, seed, err)
				}
				goldenLine(t, &w, fmt.Sprintf("%s@%v/%d", p.Name, scale, seed), d)
			}
		}
	}
	for _, chains := range []int{1, 2} {
		d, err := tpi.Insert(bench.MustS27(), tpi.Options{NumChains: chains, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		goldenLine(t, &w, fmt.Sprintf("s27/chains%d", chains), d)
	}
	p, err := gen.ProfileByName("s5378")
	if err != nil {
		t.Fatal(err)
	}
	c := gen.Generate(p.Scale(0.1), 2)
	d, err := tpi.Insert(c, tpi.Options{NumChains: 2, Seed: 2, ScanFFs: tpi.SelectPartialScan(c, 0.3)})
	if err != nil {
		t.Fatal(err)
	}
	goldenLine(t, &w, "s5378@0.1/partial", d)

	got := []byte(w.String())
	if *update {
		if err := os.MkdirAll(filepath.Dir(insertGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(insertGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(insertGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("golden has %d lines, insertion produced %d", len(wl), len(gl))
	}
	shown := 0
	for i := 0; i < len(gl) && i < len(wl) && shown < 10; i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			shown++
		}
	}
}
