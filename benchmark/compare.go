package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// declaration is the part of BENCHMARK.json compare needs.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// runSet maps workload -> metric -> the values of every run.
type runSet map[string]map[string][]float64

// loadRuns reads every run output in dir: the "workload <name> ..."
// header line names the workload and the last line is the result
// object. Runs with failures are skipped and reported.
func loadRuns(dir string, stderr io.Writer) (runSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		name := ""
		for _, l := range lines {
			if f := strings.Fields(l); len(f) >= 2 && f[0] == "workload" {
				name = f[1]
				break
			}
		}
		var out struct {
			Failed  int                  `json:"failed"`
			Metrics map[string]valueUnit `json:"metrics"`
		}
		if name == "" || json.Unmarshal([]byte(lines[len(lines)-1]), &out) != nil {
			continue
		}
		if out.Failed > 0 {
			fmt.Fprintf(stderr, "compare: skipping %s: %d failed operations\n", path, out.Failed)
			continue
		}
		if set[name] == nil {
			set[name] = map[string][]float64{}
		}
		for m, v := range out.Metrics {
			set[name][m] = append(set[name][m], v.Value)
		}
	}
	return set, nil
}

// verdict compares run sets a (before) and b (after) of one metric. A
// change beyond the bound in the worse direction is worse; an
// improvement larger than a's own spread (the distance between its
// quartiles, relative to its median) is better. When either side's
// spread exceeds the bound the data cannot tell, unless every run of b
// beats every run of a.
func verdict(a, b []float64, better string, bound float64) string {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	if ma == 0 {
		return "unresolved"
	}
	sign := 1.0 // > 0 means b is worse
	if better == "higher" {
		sign = -1
	}
	spreadA, spreadB := (q3a-q1a)/ma, ratio(q3b-q1b, mb)
	worse := sign * (mb - ma) / ma
	if spreadA > bound || spreadB > bound {
		if sign*(slices.Max(b)-slices.Min(a)) < 0 && sign*(slices.Min(b)-slices.Max(a)) < 0 {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case -worse > spreadA:
		return "better"
	}
	return "unchanged"
}

// compareMain implements `fsctbench compare A/ B/`, run from the
// repository root: for every end-to-end metric and workload it prints
// both sides' quartiles and a verdict against the metric's bound in
// BENCHMARK.json, then the per-layer medians. It exits 1 when any pair
// is worse or unresolved.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: fsctbench compare A/ B/")
		return 2
	}
	decl, err := loadDeclaration("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 1
	}
	var sets [2]runSet
	for i := range sets {
		if sets[i], err = loadRuns(args[i], stderr); err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 1
		}
	}
	a, b := sets[0], sets[1]
	bad := 0
	fmt.Fprintf(stdout, "%-16s %-18s %-34s %-34s %8s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "verdict")
	row := func(w string, m declaredMetric, withVerdict bool) {
		va, vb := a[w][m.Name], b[w][m.Name]
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		q1a, ma, q3a := quartiles(va)
		q1b, mb, q3b := quartiles(vb)
		v := "-"
		if withVerdict {
			v = verdict(va, vb, m.Better, m.Bound)
			if v == "worse" || v == "unresolved" {
				bad++
			}
		}
		fmt.Fprintf(stdout, "%-16s %-18s %-34s %-34s %+7.1f%%  %s\n", w, m.Name,
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", ma, q1a, q3a, len(va)),
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", mb, q1b, q3b, len(vb)),
			100*ratio(mb-ma, ma), v)
	}
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			row(w.Name, m, true)
		}
	}
	for _, w := range decl.Workloads {
		for _, m := range decl.PerLayer {
			row(w.Name, m, false)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d pairs worse or unresolved\n", bad)
		return 1
	}
	return 0
}
