// Command fsctbench is the repository's benchmark. It runs one of four
// workloads — the paper's flow over the whole suite as a one-shot CLI
// pays for it, a fault simulation large enough for the hybrid
// evaluator, and the fsctd daemon under hot and cold traffic — checks
// the outputs, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics) ending with one JSON line:
//
//	fsctbench -workload suite-flow [-seed 1] [-seconds 25] [-trace 0|1]
//	fsctbench compare A/ B/
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, as declared in
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"retained_heap_mb", "MB"},
}

// perLayer are the metrics a traced run prints, as declared in
// BENCHMARK.json. A layer that is not on a workload's path reports 0;
// that is why layer time on a workload-specific path is reported as a
// share of the workload's blocking time rather than in seconds.
var perLayer = []metricDef{
	{"gen.generate_s", "s"},
	{"tpi.insert_s", "s"},
	{"task.build_ms", "ms"},
	{"task.build_share", "fraction"},
	{"engine.compile_s", "s"},
	{"engine.faults_s", "s"},
	{"engine.comb_s", "s"},
	{"engine.cones_s", "s"},
	{"engine.cache.hit_ratio", "fraction"},
	{"engine.cache.evictions", "count"},
	{"core.screen.share", "fraction"},
	{"core.step1.share", "fraction"},
	{"core.step2.share", "fraction"},
	{"core.step3.share", "fraction"},
	{"atpg.comb.generated", "count"},
	{"atpg.comb.backtracks", "count"},
	{"atpg.comb.aborted", "count"},
	{"atpg.final.generated", "count"},
	{"atpg.final.backtracks", "count"},
	{"atpg.final.useful_ratio", "fraction"},
	{"step2.vectors", "count"},
	{"step2.drop_ratio", "fraction"},
	{"faultsim.share", "fraction"},
	{"faultsim.fault_cycles_per_s", "1/s"},
	{"faultsim.hybrid.cone_faults", "count"},
	{"faultsim.hybrid.swept_faults", "count"},
	{"faultsim.hybrid.static_small", "count"},
	{"faultsim.hybrid.demote_ratio", "fraction"},
	{"faultsim.alloc_mb", "MB"},
	{"pool.screen.util", "fraction"},
	{"pool.faultsim.util", "fraction"},
	{"pool.faultsim_delta.util", "fraction"},
	{"par.efficiency", "fraction"},
	{"serve.submit.share", "fraction"},
	{"serve.queue.share", "fraction"},
	{"serve.run.share", "fraction"},
	{"serve.deliver.share", "fraction"},
	{"serve.result.share", "fraction"},
	{"serve.run.flow.share", "fraction"},
	{"serve.run.screen.share", "fraction"},
	{"serve.run.atpg.share", "fraction"},
	{"serve.run.faultsim.share", "fraction"},
	{"serve.run.diagnose.share", "fraction"},
	{"journal.heap_per_job_mb", "MB"},
	{"obs.trace_overhead", "ratio"},
}

// workload is one benchmark input set and the code that drives it.
type workload struct {
	name string
	run  func(cfg config) (*result, error)
}

var workloads = []workload{
	{"suite-flow", runSuiteFlow},
	{"faultsim-hybrid", runFaultsimHybrid},
	{"daemon-hot", func(cfg config) (*result, error) { return runDaemon(cfg, false) }},
	{"daemon-cold", func(cfg config) (*result, error) { return runDaemon(cfg, true) }},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	nproc    int
	// tr is nil in the untraced run.
	tr *tracer
	// small shrinks every input so the smoke test drives the same code
	// in seconds.
	small bool
}

func (c config) budget() time.Duration { return time.Duration(c.seconds) * time.Second }

// result is what a workload run measured and checked.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string // printed above the JSON line
	failures          []string // printed to stderr
	// outputs holds each operation's scrubbed output by key, for the
	// golden check; seedFree marks outputs that do not depend on the
	// seed, so the golden digests apply at every seed, not just seed 1.
	outputs  map[string]string
	seedFree bool
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, outputs: map[string]string{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// record keeps one operation's output under key. An output that differs
// from the first one kept under the same key counts as a failure: every
// operation the benchmark repeats is deterministic.
func (r *result) record(key, output string) {
	output = scrub(output)
	if prev, ok := r.outputs[key]; ok && prev != output {
		r.fail("%s: output differs from an earlier run of the same input", key)
		return
	}
	r.outputs[key] = output
}

// bracketed matches the wall and CPU times reports print in brackets;
// they are the only part of an output that may change between runs.
var bracketed = regexp.MustCompile(`\[[^][]*\]`)

func scrub(s string) string { return bracketed.ReplaceAllString(s, "[x]") }

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// goldenJSON holds, per workload, the SHA-256 of each scrubbed output
// at seed 1 (rewrite with -update).
//
//go:embed testdata/golden.json
var goldenJSON []byte

type goldenSet map[string]map[string]string

// checkGolden compares the run's outputs with the committed digests,
// where they apply: full-size inputs, and seed 1 unless the outputs do
// not depend on the seed.
func checkGolden(cfg config, res *result) error {
	if cfg.small || (!res.seedFree && cfg.seed != 1) {
		return nil
	}
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden digests: %w", err)
	}
	checked := 0
	for key, out := range res.outputs {
		want, ok := g[cfg.workload][key]
		if !ok {
			continue
		}
		checked++
		if digest(out) != want {
			res.fail("%s: output does not match the golden digest", key)
		}
	}
	res.note("golden: %d outputs checked", checked)
	return nil
}

// updateGolden rewrites the workload's digests in the file at path.
func updateGolden(path string, cfg config, res *result) error {
	if cfg.small || (!res.seedFree && cfg.seed != 1) {
		return fmt.Errorf("-update needs full-size inputs and -seed 1")
	}
	g := goldenSet{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("golden digests: %w", err)
		}
	}
	g[cfg.workload] = map[string]string{}
	for key, out := range res.outputs {
		g[cfg.workload][key] = digest(out)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsctbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 25, "measurement budget of one run, in seconds")
	traced := fs.Int("trace", 0, "1 selects the traced run, which prints the per-layer metrics")
	update := fs.String("update", "", "rewrite the workload's golden digests in this file from the run's outputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "fsctbench: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "fsctbench: -seconds must be at least 1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, nproc: runtime.NumCPU()}
	if *traced == 1 {
		cfg.tr = newTracer()
	}
	res, err := runWorkload(cfg)
	if err == nil {
		if *update != "" {
			err = updateGolden(*update, cfg, res)
		} else {
			err = checkGolden(cfg, res)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "fsctbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.tr != nil {
		path := fmt.Sprintf(".bench_build/trace-%s-%d.json", cfg.workload, cfg.seed)
		if err := writeSpans(path, cfg.tr.finish()); err != nil {
			fmt.Fprintf(stderr, "fsctbench: %v\n", err)
			return 1
		}
		res.note("spans written to %s", path)
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "fsctbench: FAIL %s\n", f)
	}
	if err := printResult(stdout, cfg, res); err != nil {
		fmt.Fprintf(stderr, "fsctbench: %v\n", err)
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload runs the configured workload.
func runWorkload(cfg config) (*result, error) {
	for _, w := range workloads {
		if w.name == cfg.workload {
			return w.run(cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloadNames(), ", "))
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the metrics table and, as the last line, the JSON
// result object.
func printResult(w io.Writer, cfg config, res *result) error {
	defs := endToEnd
	if cfg.tr != nil {
		defs = perLayer
	}
	trace := 0
	if cfg.tr != nil {
		trace = 1
	}
	fmt.Fprintf(w, "workload %s seed %d trace %d seconds %d nproc %d %s\n",
		cfg.workload, cfg.seed, trace, cfg.seconds, cfg.nproc, runtime.Version())
	for _, n := range res.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]valueUnit{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && cfg.tr == nil {
			return fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		out.Metrics[d.name] = valueUnit{v, d.unit}
		fmt.Fprintf(w, "  %-30s %16.6f %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
