package atpg_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqatpg"
	"repro/internal/task"
	"repro/internal/tpi"
)

var update = flag.Bool("update", false, "rewrite testdata/search_golden.txt from the current engine")

const searchGolden = "testdata/search_golden.txt"

// assignmentDigest hashes an assignment in signal order, so two searches
// that decide the same inputs to the same values share a digest.
func assignmentDigest(asn map[netlist.SignalID]logic.V) uint64 {
	ids := make([]netlist.SignalID, 0, len(asn))
	for id := range asn {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(h, "%d=%d;", id, asn[id])
	}
	return h.Sum64()
}

// sequenceDigest hashes a translated multi-frame test sequence.
func sequenceDigest(seq [][]logic.V, conflicts int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "c%d;", conflicts)
	for _, vec := range seq {
		for _, v := range vec {
			fmt.Fprintf(h, "%d", v)
		}
		h.Write([]byte{';'})
	}
	return h.Sum64()
}

// combOutcomes runs PODEM on every collapsed fault of orig's
// combinational model under fixed, one golden line per fault.
func combOutcomes(t *testing.T, w *strings.Builder, label string, orig *netlist.Circuit, fixed map[netlist.SignalID]logic.V, limit int) {
	t.Helper()
	cm, err := atpg.BuildCombModel(orig)
	if err != nil {
		t.Fatal(err)
	}
	m, err := atpg.NewModel(cm.C, fixed)
	if err != nil {
		t.Fatal(err)
	}
	e := atpg.NewEngine(m)
	for i, f0 := range fault.Collapsed(orig) {
		f := cm.MapFault(f0)
		res, _ := e.GenerateCtx(context.Background(), f, limit)
		fmt.Fprintf(w, "%s %d %s %v %d %016x\n", label, i, f.Describe(cm.C),
			res.Status, res.Backtracks, assignmentDigest(res.Assignment))
	}
}

// TestSearchGolden pins PODEM's search, not just its verdicts: for each
// fault the status, backtrack count and decided assignment must match
// the committed golden exactly. Any change in decision order moves at
// least one line. Run with -update to rewrite the golden after an
// intended search change.
func TestSearchGolden(t *testing.T) {
	var w strings.Builder

	s27 := bench.MustS27()
	combOutcomes(t, &w, "s27", s27, nil, 10000)

	for _, name := range []string{"s1423", "s5378", "s9234"} {
		p, err := gen.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := gen.Generate(p.Scale(0.05), 1)
		d, err := tpi.Insert(c, tpi.Options{NumChains: task.DefaultChains(len(c.FFs)), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		combOutcomes(t, &w, name+"@0.05", d.C, d.Assignments, 250)
	}

	// Time-frame expansion: every fault is injected once per frame
	// through GenerateMultiCtx, plain and with the whole chain enhanced.
	d, err := tpi.Insert(s27, tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	all := map[netlist.SignalID]bool{}
	for _, ff := range d.C.FFs {
		all[ff] = true
	}
	for _, cfg := range []struct {
		label     string
		ctrl, obs map[netlist.SignalID]bool
		frames    int
	}{
		{"s27/seq4", nil, nil, 4},
		{"s27/seq2+co", all, all, 2},
	} {
		m, err := seqatpg.Build(d, cfg.ctrl, cfg.obs, cfg.frames)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fault.Collapsed(d.C) {
			res, _ := m.GenerateCtx(context.Background(), f, 2000)
			fmt.Fprintf(&w, "%s %d %s %v %d %016x\n", cfg.label, i, f.Describe(d.C),
				res.Status, res.Backtracks, sequenceDigest(res.Sequence, res.Conflicts))
		}
	}

	got := []byte(w.String())
	if *update {
		if err := os.MkdirAll(filepath.Dir(searchGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(searchGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(searchGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("golden has %d lines, search produced %d", len(wl), len(gl))
	}
	shown := 0
	for i := 0; i < len(gl) && i < len(wl) && shown < 10; i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			shown++
		}
	}
}
