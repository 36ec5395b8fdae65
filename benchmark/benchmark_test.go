package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestDeclaration pins the workload and metric names and units the code
// emits to the ones BENCHMARK.json declares.
func TestDeclaration(t *testing.T) {
	decl, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads: declared %v, code runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		what     string
		declared []declaredMetric
		code     []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		var d, e []string
		for _, m := range c.declared {
			d = append(d, m.Name+" "+m.Unit)
		}
		for _, m := range c.code {
			e = append(e, m.name+" "+m.unit)
		}
		if !slices.Equal(d, e) {
			t.Errorf("%s: declared %v, code emits %v", c.what, d, e)
		}
	}
}

// TestSmoke drives every workload, untraced and traced, through the
// same code at a tiny size (3 circuits at scale 0.02, 12 daemon jobs)
// and checks that it passes its own correctness checks and prints
// exactly the declared metrics.
func TestSmoke(t *testing.T) {
	decl, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 2, seconds: 1, nproc: runtime.NumCPU(), small: true}
			want := decl.EndToEnd
			if traced {
				cfg.tr = newTracer()
				want = decl.PerLayer
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed > 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.failed, res.attempted, res.failures)
			}
			var buf bytes.Buffer
			if err := printResult(&buf, cfg, res); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var out struct {
				Correct   bool                 `json:"correct"`
				Attempted int                  `json:"attempted"`
				Metrics   map[string]valueUnit `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", w.name, traced, err)
			}
			if !out.Correct || out.Attempted != res.attempted {
				t.Errorf("%s traced=%v: result object %+v", w.name, traced, out)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(data, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 10.2, 9.9, 9.8}
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{10, 10.1, 9.9, 10.05, 9.95}, "lower", "unchanged"},
		{[]float64{12, 12.1, 11.9, 12, 12.2}, "lower", "worse"},
		{[]float64{9, 9.1, 8.9, 9, 9.05}, "lower", "better"},
		{[]float64{12, 12.1, 11.9, 12, 12.2}, "higher", "better"},
		{[]float64{5, 15, 10, 20, 1}, "lower", "unresolved"},
	} {
		if got := verdict(base, c.b, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.b, c.better, got, c.want)
		}
	}
}
