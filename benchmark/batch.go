package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/ledger"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/task"
)

// timeSetUp runs build n times, each after a forced collection, and
// appends each wall time to setup. A batch run sets up again before
// every timed job, so the median of its set-up times spans the run as
// its job times do.
func timeSetUp(setup []float64, n int, build func() error) ([]float64, error) {
	for range n {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		setup = append(setup, secs(time.Since(t0)))
	}
	runtime.GC()
	return setup, nil
}

// suiteSpecs returns the suite-flow inputs: every suite profile at scale
// 0.07 with fsctest's default seed. The designs do not depend on the run
// seed because step-3 time swings by a factor of two or more between
// generator seeds (5.5 s, 3.8 s and 10.2 s a pass for seeds 1 to 3 on
// two cores): a seed-dependent suite would measure the generator, not
// the code. The run seed draws the order of every pass instead. At
// scale 0.07 a pass takes about 5 s; at 0.1 it takes 11 to 15 s, too
// long to repeat within a run.
func suiteSpecs(cfg config) []task.Spec {
	scale := 0.07
	var names []string
	for _, p := range gen.Suite() {
		names = append(names, p.Name)
	}
	if cfg.small {
		scale, names = 0.02, []string{"s1423", "s5378", "s9234"}
	}
	specs := make([]task.Spec, len(names))
	for i, n := range names {
		specs[i] = task.Spec{Kind: task.KindFlow, Circuit: n, Scale: scale, Seed: 1}
	}
	return specs
}

func runSuiteFlow(cfg config) (*result, error) {
	res := newResult()
	res.seedFree = true
	specs := suiteSpecs(cfg)
	var designs []*scan.Design
	build := func() error {
		designs = make([]*scan.Design, len(specs))
		for i, sp := range specs {
			d, err := sp.BuildDesign()
			if err != nil {
				return err
			}
			designs[i] = d
		}
		return nil
	}
	if cfg.tr != nil {
		if _, err := timeSetUp(nil, 1, build); err != nil {
			return nil, err
		}
		return res, traceSuiteFlow(cfg, res, specs, designs)
	}

	// A job is one pass over the suite, as one fsctest invocation is,
	// on designs built just before it. Every pass runs the circuits in
	// an order of its own, drawn from the run seed, and the job time is
	// assembled circuit by circuit.
	rng := rand.New(rand.NewSource(cfg.seed))
	times := make([][]float64, len(specs))
	var setup []float64
	var last *flowPass
	for range passes(cfg, 5*time.Second) {
		var err error
		if setup, err = timeSetUp(setup, 1, build); err != nil {
			return nil, err
		}
		last = runFlows(res, designs, rng.Perm(len(designs)), cfg.nproc, nil, 0)
		for i, d := range last.each {
			times[i] = append(times[i], secs(d))
		}
	}
	var job float64
	for _, ts := range times {
		job += lowerQuartile(ts)
	}
	res.metrics["setup_s"] = median(setup)
	setBatchMetrics(res, job)
	runtime.KeepAlive(last)
	runtime.KeepAlive(designs)
	res.note("setup: Spec.BuildDesign (gen + tpi) for %d circuits before every pass, median of %d", len(specs), len(setup))
	res.note("job: sum over %d circuits of each one's lower-quartile flow time over %d passes", len(specs), len(setup))
	return res, nil
}

// passes is how many jobs a batch run times: as many as fit in its
// seconds at the job's nominal wall time on two cores, and at least one.
// The count is fixed by -seconds rather than by the clock, so both sides
// of a change time the same work.
func passes(cfg config, nominal time.Duration) int {
	return max(1, int(cfg.budget()/nominal))
}

// setBatchMetrics sets a batch workload's end-to-end metrics from its job
// time, and the heap it holds afterwards. A batch run repeats one job, so
// its latency percentiles and its throughput all follow from that time.
//
// The job time is the lower quartile of the repeats, not their median,
// because the host's slowdowns only ever add time and come and go within
// seconds: on the baseline machine one circuit's flow took 597 to 1103 ms,
// the slow runs in spells of up to about 7 s, while a loop that stays in
// the cache moved by 5%. The lower quartile follows the code as long as a
// quarter of the repeats miss such spells; the median of whole passes
// follows the neighbours (see README.md, "Run-to-run spread").
func setBatchMetrics(res *result, job float64) {
	res.metrics["wall_s"] = job
	res.metrics["jobs_per_s"] = 1 / job
	res.metrics["job_p50_ms"] = 1000 * job
	res.metrics["job_p95_ms"] = 1000 * job
	res.metrics["retained_heap_mb"] = heapInuseMB()
}

// flowPass is one run of the flow over every design.
type flowPass struct {
	wall    time.Duration
	each    []time.Duration // per design, in design order
	reports []*core.Report
	engines []*engine.Cache
}

// runFlows runs the flow once over every design, in the given order of
// design indexes (nil: design order), each on a fresh engine as a
// one-shot fsctest pays. With a tracer (the traced pass) every run gets
// a collector and a core.RunCtx span under parent, with the phases the
// collector recorded replayed under it.
func runFlows(res *result, designs []*scan.Design, order []int, workers int, tr *tracer, parent int) *flowPass {
	if order == nil {
		order = make([]int, len(designs))
		for i := range order {
			order[i] = i
		}
	}
	fp := &flowPass{each: make([]time.Duration, len(designs))}
	t0 := time.Now()
	for _, i := range order {
		d := designs[i]
		var col *obs.Collector
		if tr != nil {
			col = obs.New()
		}
		eng := engine.New()
		c0 := time.Now()
		rep, err := core.RunCtx(context.Background(), d, core.Params{Workers: workers, Engine: eng, Obs: col})
		c1 := time.Now()
		fp.each[i] = c1.Sub(c0)
		res.attempted++
		if err != nil {
			res.fail("flow %s: %v", d.C.Name, err)
			continue
		}
		res.record("flow "+d.C.Name, core.FormatReport(rep))
		fp.reports = append(fp.reports, rep)
		fp.engines = append(fp.engines, eng)
		if tr != nil {
			id := tr.add(parent, "core.RunCtx", srcBench, c0, c1, "circuit", d.C.Name)
			replayPhases(tr, id, c0, rep.Metrics.Phases)
		}
	}
	fp.wall = time.Since(t0)
	return fp
}

// traceSuiteFlow is the traced suite-flow run: an untraced pass (the
// overhead and parallel-efficiency baseline), the traced pass, a pass
// at one worker whose reports must equal the first pass's, and the
// build and engine layer timings.
func traceSuiteFlow(cfg config, res *result, specs []task.Spec, designs []*scan.Design) error {
	tr := cfg.tr
	wN := runFlows(res, designs, nil, cfg.nproc, nil, 0)
	root := tr.open(0, "suite-flow pass")
	tp := runFlows(res, designs, nil, cfg.nproc, tr, root)
	tr.end(root)
	w1 := runFlows(res, designs, nil, 1, nil, 0)
	if _, err := timeLayers(cfg, res, specs); err != nil {
		return err
	}
	all := newObsTotals()
	var hits, misses, evictions int64
	for i, rep := range tp.reports {
		all.add(ledger.FlattenMetrics(rep.Metrics))
		st := tp.engines[i].Stats()
		hits, misses, evictions = hits+st.Hits, misses+st.Misses, evictions+st.Evictions
	}
	setProgramMetrics(res, all, all, tp.wall)
	setShares(res, selfByName(tr.finish()), tp.wall)
	setCacheMetrics(res, hits, misses, evictions)
	res.metrics["par.efficiency"] = ratio(secs(w1.wall), float64(cfg.nproc)*secs(wN.wall))
	res.metrics["obs.trace_overhead"] = ratio(secs(tp.wall), secs(wN.wall))
	res.note("passes: %d workers %.3fs, traced %.3fs, 1 worker %.3fs", cfg.nproc, secs(wN.wall), secs(tp.wall), secs(w1.wall))
	return nil
}

// fsSpec is the faultsim-hybrid input: a faultsim job on s38584 at scale
// 0.25 — 4815 gates, 18629 collapsed faults and 5180 signals, past the
// 4096-signal crossover where Auto picks the hybrid evaluator — over
// 1024 random cycles. The circuit keeps the default seed; the run seed
// draws the stimulus, which leaves the work nearly constant (6.5 s to
// 6.9 s for three stimulus seeds, against 6.9 s to 8.9 s for three
// generator seeds).
func fsSpec(cfg config) task.Spec {
	if cfg.small {
		return task.Spec{Kind: task.KindFaultSim, Circuit: "s38584", Scale: 0.02, Seed: 1, Cycles: 64}
	}
	return task.Spec{Kind: task.KindFaultSim, Circuit: "s38584", Scale: 0.25, Seed: 1, Cycles: 1024}
}

func runFaultsimHybrid(cfg config) (*result, error) {
	res := newResult()
	sp := fsSpec(cfg)
	var c *netlist.Circuit
	var seq faultsim.Sequence
	build := func() (err error) {
		if c, err = sp.BuildCircuit(); err != nil {
			return err
		}
		seq = task.RandomSequence(c, cfg.seed, sp.Cycles)
		return nil
	}
	if cfg.tr != nil {
		if _, err := timeSetUp(nil, 1, build); err != nil {
			return nil, err
		}
		return res, traceFaultsim(cfg, res, sp, c, seq)
	}

	// The build takes a few milliseconds, so set-up repeats it 25 times
	// before every job.
	var setup, walls []float64
	var last *simRun
	for range passes(cfg, 7*time.Second) {
		var err error
		if setup, err = timeSetUp(setup, 25, build); err != nil {
			return nil, err
		}
		last = simulate(res, c, seq, faultsim.Options{Workers: cfg.nproc}, nil, 0)
		walls = append(walls, secs(last.wall))
	}
	res.metrics["setup_s"] = median(setup)
	setBatchMetrics(res, lowerQuartile(walls))
	runtime.KeepAlive(last)
	res.note("setup: Spec.BuildCircuit (gen) and a %d-cycle stimulus, 25 times before every job, median of %d", sp.Cycles, len(setup))
	res.note("job: lower-quartile wall time of %d runs", len(walls))
	checkReference(cfg, res, c, seq, last)
	return res, nil
}

// simRun is one faultsim job.
type simRun struct {
	wall, sim time.Duration // whole job; faultsim.RunCtx alone
	alloc     uint64        // bytes allocated inside faultsim.RunCtx (traced run only)
	faults    []fault.Fault
	det       []int
	eng       *engine.Cache
}

// simulate runs one faultsim job the way the faultsim CLI does: a fresh
// engine, its collapsed fault list, then faultsim.RunCtx. With a tracer
// the two calls get spans under parent and the run's allocation is
// measured.
func simulate(res *result, c *netlist.Circuit, seq faultsim.Sequence, opts faultsim.Options, tr *tracer, parent int) *simRun {
	r := &simRun{eng: engine.New()}
	opts.Cache = r.eng
	t0 := time.Now()
	tr.call(parent, "engine.Artifacts.CollapsedFaults", func() { r.faults = r.eng.For(c).CollapsedFaults() })
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	var out *faultsim.Result
	var err error
	r.sim = tr.call(parent, "faultsim.RunCtx", func() { out, err = faultsim.RunCtx(context.Background(), c, seq, r.faults, opts) })
	if tr != nil {
		runtime.ReadMemStats(&after)
		r.alloc = after.TotalAlloc - before.TotalAlloc
	}
	r.wall = time.Since(t0)
	res.attempted++
	if err != nil {
		res.fail("faultsim: %v", err)
		return r
	}
	r.det = out.DetectedAt
	res.record("detected_at", formatInts(out.DetectedAt))
	return r
}

func formatInts(xs []int) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, "%d\n", x)
	}
	return b.String()
}

// checkReference re-simulates a seeded sample of the run's faults — up
// to eight it detected and eight it did not — on faultsim.RunSerial, the
// scalar reference simulator that shares no evaluator code with the
// compiled and hybrid paths, and counts every disagreement as a failure.
func checkReference(cfg config, res *result, c *netlist.Circuit, seq faultsim.Sequence, r *simRun) {
	if r.det == nil {
		return
	}
	var hit, miss []int
	for _, i := range rand.New(rand.NewSource(cfg.seed)).Perm(len(r.faults)) {
		switch {
		case r.det[i] >= 0 && len(hit) < 8:
			hit = append(hit, i)
		case r.det[i] < 0 && len(miss) < 8:
			miss = append(miss, i)
		}
	}
	idx := append(hit, miss...)
	sample := make([]fault.Fault, len(idx))
	for k, i := range idx {
		sample[k] = r.faults[i]
	}
	ref := faultsim.RunSerial(c, seq, sample, faultsim.Options{})
	bad := 0
	for k, i := range idx {
		if ref.DetectedAt[k] != r.det[i] {
			bad++
		}
	}
	if bad > 0 {
		res.fail("faultsim: %d of %d sampled faults disagree with the scalar reference simulator", bad, len(idx))
	}
	res.note("reference: %d sampled faults checked against faultsim.RunSerial", len(idx))
}

// traceFaultsim is the traced faultsim-hybrid run: an untraced job (the
// overhead and parallel-efficiency baseline), the traced job, then the
// same job at one worker and on the compiled evaluator, whose detection
// cycles must equal the hybrid run's, and the layer timings.
func traceFaultsim(cfg config, res *result, sp task.Spec, c *netlist.Circuit, seq faultsim.Sequence) error {
	tr := cfg.tr
	wN := simulate(res, c, seq, faultsim.Options{Workers: cfg.nproc}, nil, 0)
	col := obs.New()
	root := tr.open(0, "faultsim-hybrid pass")
	tp := simulate(res, c, seq, faultsim.Options{Workers: cfg.nproc, Obs: col}, tr, root)
	tr.end(root)
	w1 := simulate(res, c, seq, faultsim.Options{Workers: 1}, nil, 0)
	simulate(res, c, seq, faultsim.Options{Workers: cfg.nproc, Eval: engine.Compiled}, nil, 0)
	checkReference(cfg, res, c, seq, tp)
	if _, err := timeLayers(cfg, res, []task.Spec{sp}); err != nil {
		return err
	}
	all := newObsTotals()
	all.add(ledger.FlattenMetrics(col.Snapshot()))
	setProgramMetrics(res, all, newObsTotals(), tp.wall)
	setShares(res, selfByName(tr.finish()), tp.wall)
	st := tp.eng.Stats()
	setCacheMetrics(res, st.Hits, st.Misses, st.Evictions)
	res.metrics["faultsim.fault_cycles_per_s"] = ratio(float64(len(tp.faults)*len(seq)), secs(tp.sim))
	res.metrics["faultsim.alloc_mb"] = float64(tp.alloc) / (1 << 20)
	res.metrics["par.efficiency"] = ratio(secs(w1.wall), float64(cfg.nproc)*secs(wN.wall))
	res.metrics["obs.trace_overhead"] = ratio(secs(tp.wall), secs(wN.wall))
	res.note("runs: %d workers %.3fs, traced %.3fs, 1 worker %.3fs; compiled evaluator cross-checked",
		cfg.nproc, secs(wN.wall), secs(tp.wall), secs(w1.wall))
	return nil
}
