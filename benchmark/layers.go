package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/task"
)

// specKey names a spec by everything that decides its output.
func specKey(sp task.Spec) string {
	k := fmt.Sprintf("%s %s@%g seed %d", sp.Kind, sp.Circuit, sp.Scale, sp.Seed)
	if sp.Kind == task.KindFaultSim {
		k += fmt.Sprintf(" cycles %d", sp.Cycles)
	}
	return k
}

// timeLayers calls each build and engine layer's public entry point once
// per spec, inside spans under one "layers" root: the build a job of the
// spec's kind pays (Spec.BuildCircuit for faultsim, which simulates the
// bare circuit; Spec.BuildDesign for every other kind), gen.Generate,
// tpi.Insert (through Spec.InsertScan, which only adds the spec's chain
// count and seed; not on the faultsim path) and the engine.Artifacts
// builders on a fresh engine.New() for the circuit the kind simulates.
// It sets the per-layer build and engine metrics and returns each spec's
// build time.
func timeLayers(cfg config, res *result, specs []task.Spec) ([]time.Duration, error) {
	tr := cfg.tr
	root := tr.open(0, "layers")
	defer tr.end(root)
	var genT, tpiT, compile, faults, comb, cones time.Duration
	builds := make([]time.Duration, len(specs))
	for i, sp := range specs {
		parent := tr.open(root, "spec", "circuit", sp.Circuit, "kind", sp.Kind)
		p, err := gen.ProfileByName(sp.Circuit)
		if err != nil {
			return nil, err
		}
		if sp.Scale > 0 && sp.Scale < 1 {
			p = p.Scale(sp.Scale)
		}
		bare := sp.Kind == task.KindFaultSim
		var d *scan.Design
		if bare {
			builds[i] = tr.call(parent, "task.Spec.BuildCircuit", func() { _, err = sp.BuildCircuit() })
		} else {
			builds[i] = tr.call(parent, "task.Spec.BuildDesign", func() { d, err = sp.BuildDesign() })
		}
		if err != nil {
			return nil, err
		}
		var c *netlist.Circuit
		genT += tr.call(parent, "gen.Generate", func() { c = gen.Generate(p, sp.Seed) })
		target, fixed := c, map[netlist.SignalID]logic.V{}
		if !bare {
			tpiT += tr.call(parent, "tpi.Insert", func() { _, err = sp.InsertScan(c) })
			if err != nil {
				return nil, err
			}
			target = d.C
			for k, v := range d.Assignments {
				fixed[k] = v
			}
		}
		arts := engine.New().For(target)
		compile += tr.call(parent, "engine.Artifacts.Program", func() { arts.Program(nil) })
		faults += tr.call(parent, "engine.Artifacts.CollapsedFaults", func() { arts.CollapsedFaults() })
		comb += tr.call(parent, "engine.Artifacts.CombModel", func() { _, err = arts.CombModel() })
		if err != nil {
			return nil, err
		}
		comb += tr.call(parent, "engine.Artifacts.CombSearch", func() { _, _, err = arts.CombSearch(fixed) })
		if err != nil {
			return nil, err
		}
		cones += tr.call(parent, "engine.Artifacts.Cones", func() { arts.Cones(nil) })
		tr.end(parent)
	}
	var buildSum time.Duration
	for _, b := range builds {
		buildSum += b
	}
	res.metrics["gen.generate_s"] = secs(genT)
	res.metrics["tpi.insert_s"] = secs(tpiT)
	res.metrics["task.build_ms"] = ms(buildSum) / float64(len(specs))
	res.metrics["engine.compile_s"] = secs(compile)
	res.metrics["engine.faults_s"] = secs(faults)
	res.metrics["engine.comb_s"] = secs(comb)
	res.metrics["engine.cones_s"] = secs(cones)
	return builds, nil
}

// phaseSpan names the span a program-recorded obs phase replays as.
var phaseSpan = map[string]string{
	"screen":            "core.screen",
	"step1.alternating": "core.step1",
	"step2":             "core.step2",
	"step3":             "core.step3",
	"dictionary":        "diagnose.dictionary",
}

// replayPhases adds the phases a collector recorded as child spans of
// parent; origin is when the collector was created.
func replayPhases(tr *tracer, parent int, origin time.Time, phases []obs.PhaseMetric) {
	for _, ph := range phases {
		name := phaseSpan[ph.Name]
		if name == "" {
			name = "phase." + ph.Name
		}
		start := origin.Add(time.Duration(ph.StartNS))
		tr.add(parent, name, srcProgram, start, start.Add(time.Duration(ph.WallNS)))
	}
}

// obsTotals sums what the program's collectors recorded over several
// runs: counters, and per worker pool its wall time, busy time and
// capacity (wall × workers).
type obsTotals struct {
	counters                    map[string]float64
	poolWall, poolBusy, poolCap map[string]float64
}

func newObsTotals() *obsTotals {
	return &obsTotals{counters: map[string]float64{}, poolWall: map[string]float64{},
		poolBusy: map[string]float64{}, poolCap: map[string]float64{}}
}

// add folds in one run's metrics, flattened the way ledger records carry
// them (counters.<name>, pools.<name>.wall_ns,
// pools.<name>.workers.<i>.busy_ns), so daemon ledger records and batch
// reports go through the same code.
func (o *obsTotals) add(flat map[string]float64) {
	workers := map[string]float64{}
	for k, v := range flat {
		switch {
		case strings.HasPrefix(k, "counters."):
			o.counters[strings.TrimPrefix(k, "counters.")] += v
		case strings.HasPrefix(k, "pools."):
			rest := strings.TrimPrefix(k, "pools.")
			if i := strings.Index(rest, ".workers."); i >= 0 {
				if strings.HasSuffix(rest, ".busy_ns") {
					o.poolBusy[rest[:i]] += v
					workers[rest[:i]]++
				}
			} else if name, ok := strings.CutSuffix(rest, ".wall_ns"); ok {
				o.poolWall[name] += v
			}
		}
	}
	for name, n := range workers {
		o.poolCap[name] += flat["pools."+name+".wall_ns"] * n
	}
}

// flatPhases recovers the phase list from a flattened snapshot.
func flatPhases(flat map[string]float64) []obs.PhaseMetric {
	var out []obs.PhaseMetric
	for k, v := range flat {
		rest, ok := strings.CutPrefix(k, "phases.")
		if !ok {
			continue
		}
		if name, ok := strings.CutSuffix(rest, ".wall_ns"); ok {
			out = append(out, obs.PhaseMetric{Name: name, WallNS: int64(v),
				StartNS: int64(flat["phases."+name+".start_ns"])})
		}
	}
	return out
}

// setProgramMetrics sets the per-layer metrics that come from the
// program's own counters and pools. all covers every run of the
// workload, flows only its flow runs; blocking is the time the
// workload's users waited, the denominator of faultsim.share.
func setProgramMetrics(res *result, all, flows *obsTotals, blocking time.Duration) {
	c, f := all.counters, flows.counters
	res.metrics["atpg.comb.generated"] = c["atpg.comb.generated"]
	res.metrics["atpg.comb.backtracks"] = c["atpg.comb.backtracks"]
	res.metrics["atpg.comb.aborted"] = c["atpg.comb.aborted"]
	res.metrics["atpg.final.generated"] = c["atpg.final.generated"]
	res.metrics["atpg.final.backtracks"] = c["atpg.final.backtracks"]
	res.metrics["atpg.final.useful_ratio"] = ratio(c["atpg.final.found"]+c["atpg.final.redundant"], c["atpg.final.generated"])
	res.metrics["step2.vectors"] = f["step2.vectors"]
	// Every hard fault entering step 2 either gets a PODEM call or is
	// dropped because an earlier vector already covers it.
	hard := f["screen.hard"] + f["step1.escapes"]
	res.metrics["step2.drop_ratio"] = ratio(hard-f["atpg.comb.generated"], hard)
	cone, swept := c["faultsim.hybrid.cone_faults"], c["faultsim.hybrid.swept_faults"]
	res.metrics["faultsim.hybrid.cone_faults"] = cone
	res.metrics["faultsim.hybrid.swept_faults"] = swept
	res.metrics["faultsim.hybrid.static_small"] = c["faultsim.hybrid.static_small"]
	res.metrics["faultsim.hybrid.demote_ratio"] = ratio(swept, cone+swept)
	res.metrics["pool.screen.util"] = ratio(all.poolBusy["screen"], all.poolCap["screen"])
	res.metrics["pool.faultsim.util"] = ratio(all.poolBusy["faultsim"], all.poolCap["faultsim"])
	res.metrics["pool.faultsim_delta.util"] = ratio(all.poolBusy["faultsim.delta"], all.poolCap["faultsim.delta"])
	res.metrics["faultsim.share"] = ratio(all.poolWall["faultsim"]+all.poolWall["faultsim.delta"], float64(blocking))
}

// setShares sets the span-derived shares: each layer's self time summed
// over the run's spans, divided by blocking.
func setShares(res *result, self map[string]time.Duration, blocking time.Duration) {
	for _, name := range []string{
		"core.screen", "core.step1", "core.step2", "core.step3",
		"serve.submit", "serve.queue", "serve.run", "serve.deliver", "serve.result",
		"serve.run.flow", "serve.run.screen", "serve.run.atpg", "serve.run.faultsim", "serve.run.diagnose",
	} {
		res.metrics[name+".share"] = ratio(float64(self[name]), float64(blocking))
	}
}

// setCacheMetrics sets the engine cache metrics from probe counts.
func setCacheMetrics(res *result, hits, misses, evictions int64) {
	res.metrics["engine.cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	res.metrics["engine.cache.evictions"] = float64(evictions)
}

// heapInuseMB forces a garbage collection and returns the heap spans in
// use, in MiB.
func heapInuseMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// setLatencyMetrics sets the end-to-end metrics shared by every
// workload from the operations' latencies and the timed phase's wall.
func setLatencyMetrics(res *result, lat []time.Duration, ops int, timed time.Duration) {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = ms(d)
	}
	res.metrics["jobs_per_s"] = float64(ops) / timed.Seconds()
	res.metrics["job_p50_ms"] = percentile(xs, 50)
	res.metrics["job_p95_ms"] = percentile(xs, 95)
	res.note("latency percentiles over %d operations (%d beyond p95)", len(xs), len(xs)-int(math.Ceil(0.95*float64(len(xs)))))
}
