package task

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/journal"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/scan"
)

// Result is a job outcome: the text report (partial on interruption),
// the circuit identity and headline scalars for the ledger, and the
// per-kind data for richer consumers (tables, detection-profile plots,
// -why provenance).
type Result struct {
	// Kind echoes the spec's job kind.
	Kind string `json:"kind"`
	// Circuit and Hash identify the materialized circuit.
	Circuit string `json:"circuit"`
	Hash    uint64 `json:"hash,string,omitempty"`
	// Output is the job's text report, byte-identical to the matching
	// batch CLI's output (empty or partial when Interrupted).
	Output string `json:"output"`
	// Extras are the headline scalars merged into the ledger record.
	Extras map[string]float64 `json:"extras,omitempty"`
	// Interrupted marks a run that stopped early (it was canceled
	// mid-flight or failed).
	Interrupted bool `json:"interrupted,omitempty"`
	// Faults is the fault-axis length (0 while the run stopped before
	// resolving it).
	Faults int `json:"faults,omitempty"`

	// Report and Design are the flow kind's full outcome (Design stays
	// in-process).
	Report *core.Report `json:"report,omitempty"`
	Design *scan.Design `json:"-"`

	// Easy, Hard and Unaffecting count screening verdicts (screen).
	Easy        int `json:"easy,omitempty"`
	Hard        int `json:"hard,omitempty"`
	Unaffecting int `json:"unaffecting,omitempty"`

	// Found, Redundant and Aborted count PODEM outcomes (atpg).
	Found     int `json:"found,omitempty"`
	Redundant int `json:"redundant,omitempty"`
	Aborted   int `json:"aborted,omitempty"`

	// DetectedAt is the first-detection vector over the fault axis
	// (faultsim; -1 = undetected). Detected counts the non-negative
	// entries; Gates, FFs and Cycles carry the header stats.
	DetectedAt []int `json:"detected_at,omitempty"`
	Detected   int   `json:"detected,omitempty"`
	Gates      int   `json:"gates,omitempty"`
	FFs        int   `json:"ffs,omitempty"`
	Cycles     int   `json:"cycles,omitempty"`

	// Candidates counts the chain-affecting faults diagnosed; Exact,
	// Ambiguous, Silent and Matches accumulate their diagnosis outcomes
	// (diagnose).
	Candidates int `json:"candidates,omitempty"`
	Exact      int `json:"exact,omitempty"`
	Ambiguous  int `json:"ambiguous,omitempty"`
	Silent     int `json:"silent,omitempty"`
	Matches    int `json:"matches,omitempty"`
}

// SimResult views a faultsim result's detection vector through the
// faultsim.Result helpers (NumDetected, Undetected, Profile) for
// consumers like the CLI's -profileplot.
func (r *Result) SimResult() *faultsim.Result {
	return &faultsim.Result{DetectedAt: r.DetectedAt}
}

// Run executes a spec in this process: it normalizes the spec, runs the
// kind's executor over the whole fault axis and returns the job's
// Result. The returned error is context.Canceled (possibly wrapped)
// when the job was canceled mid-flight; the Result then still carries
// whatever ran, following the matching CLI's partial-output
// convention: flow and faultsim keep a partial report, the other kinds
// report nothing. A nil cache selects engine.Default(); a nil
// collector runs uninstrumented. When the collector records a journal,
// the run is bracketed by one unit_begin/unit_end pair — the span the
// tracing layer (internal/trace) assembles under the root context its
// caller passes (the CLI session's or the daemon job's), and the whole
// lifecycle the daemon's run tracker (internal/telemetry) folds — with
// one axis event between them once the executor knows the fault-axis
// length.
func Run(ctx context.Context, sp Spec, cache *engine.Cache, col *obs.Collector) (res *Result, err error) {
	if err := sp.Normalize(); err != nil {
		return nil, err
	}
	res = &Result{Kind: sp.Kind}
	returned := false // stays false while a panic unwinds
	if rec := col.Journal(); rec.Enabled() {
		rec.Emit(journal.UnitBegin())
		start := time.Now()
		// The end event always lands — also on cancel, failure or panic
		// — so partial traces keep their unit boundary, and only a run
		// that returned without error ends clean.
		defer func() {
			clean := returned && err == nil
			faults := -1 // the axis length was never resolved
			if clean || res.Faults > 0 {
				faults = res.Faults
			}
			rec.Emit(journal.UnitEnd(faults, resultHits(res), clean, time.Since(start)))
		}()
	}
	switch sp.Kind {
	case KindFlow:
		err = runFlow(ctx, sp, cache, col, res)
	case KindScreen:
		err = runScreen(ctx, sp, cache, col, res)
	case KindATPG:
		err = runATPG(ctx, sp, cache, col, res)
	case KindFaultSim:
		err = runFaultSim(ctx, sp, cache, col, res)
	case KindDiagnose:
		err = runDiagnose(ctx, sp, cache, col, res)
	}
	res.Interrupted = err != nil
	returned = true
	return res, err
}

func runFlow(ctx context.Context, sp Spec, cache *engine.Cache, col *obs.Collector, res *Result) error {
	d, err := sp.BuildDesign()
	if err != nil {
		return err
	}
	res.Circuit, res.Hash, res.Design = d.C.Name, d.C.StructuralHash(), d
	rep, err := core.RunCtx(ctx, d, core.Params{
		Workers: sp.Workers, Engine: cache, Obs: col,
	})
	if rep != nil {
		res.Report, res.Faults = rep, rep.Faults
		res.Output = core.FormatReport(rep)
		res.Extras = FlowExtras(rep)
	}
	return err
}

func runScreen(ctx context.Context, sp Spec, cache *engine.Cache, col *obs.Collector, res *Result) error {
	d, err := sp.BuildDesign()
	if err != nil {
		return err
	}
	faults := engine.Resolve(cache).ForObs(d.C, col).CollapsedFaults()
	res.Circuit, res.Hash, res.Faults = d.C.Name, d.C.StructuralHash(), len(faults)
	col.Journal().Emit(journal.Axis(res.Faults))
	screened, err := core.ScreenCtx(ctx, d, faults, core.ScreenOptions{
		Workers: sp.Workers, Cache: cache, Obs: col,
	})
	if err != nil {
		return err
	}
	res.Easy, res.Hard, res.Unaffecting = countScreened(screened)
	res.Output = formatScreenCounts(res.Circuit, res.Faults, res.Easy, res.Hard, res.Unaffecting)
	res.Extras = map[string]float64{
		"faults": float64(res.Faults),
		"easy":   float64(res.Easy),
		"hard":   float64(res.Hard),
	}
	return nil
}

func runATPG(ctx context.Context, sp Spec, cache *engine.Cache, col *obs.Collector, res *Result) error {
	d, err := sp.BuildDesign()
	if err != nil {
		return err
	}
	arts := engine.Resolve(cache).ForObs(d.C, col)
	fixed := make(map[netlist.SignalID]logic.V, len(d.Assignments))
	for k, v := range d.Assignments {
		fixed[k] = v
	}
	model, tables, err := arts.CombSearch(fixed)
	if err != nil {
		return err
	}
	cm, err := arts.CombModel()
	if err != nil {
		return err
	}
	faults := engine.Resolve(cache).ForObs(cm.C, col).CollapsedFaults()
	res.Circuit, res.Hash, res.Faults = d.C.Name, d.C.StructuralHash(), len(faults)
	col.Journal().Emit(journal.Axis(res.Faults))

	eng := atpg.NewEngineTables(model, tables)
	eng.Instrument(col, "atpg.comb")
	for _, f := range faults {
		r, err := eng.GenerateCtx(ctx, f, core.CombBacktracks)
		if err != nil {
			return err
		}
		switch r.Status {
		case atpg.Found:
			res.Found++
		case atpg.Redundant:
			res.Redundant++
		default:
			res.Aborted++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %s: comb ATPG over %d faults\n", res.Circuit, res.Faults)
	fmt.Fprintf(&b, "found %d  redundant %d  aborted %d\n", res.Found, res.Redundant, res.Aborted)
	res.Output = b.String()
	res.Extras = map[string]float64{
		"faults":    float64(res.Faults),
		"found":     float64(res.Found),
		"redundant": float64(res.Redundant),
		"aborted":   float64(res.Aborted),
	}
	return nil
}

func runFaultSim(ctx context.Context, sp Spec, cache *engine.Cache, col *obs.Collector, res *Result) error {
	c, err := sp.BuildCircuit()
	if err != nil {
		return err
	}
	var faults []fault.Fault
	if sp.Uncollapsed {
		faults = fault.All(c)
	} else {
		faults = engine.Resolve(cache).ForObs(c, col).CollapsedFaults()
	}
	seq, err := sp.Stimulus(c)
	if err != nil {
		return err
	}
	st := c.Stat()
	res.Circuit, res.Hash, res.Faults = c.Name, c.StructuralHash(), len(faults)
	res.Gates, res.FFs, res.Cycles = st.Gates, st.FFs, len(seq)
	col.Journal().Emit(journal.Axis(res.Faults))
	r, err := faultsim.RunCtx(ctx, c, seq, faults, faultsim.Options{
		Workers: sp.Workers, Cache: cache, Obs: col,
	})
	res.DetectedAt = r.DetectedAt
	res.Detected = r.NumDetected()
	// A canceled run keeps its partial report, as the faultsim CLI does.
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %s: %d gates, %d FFs; %d faults; %d cycles\n",
		res.Circuit, res.Gates, res.FFs, res.Faults, res.Cycles)
	note := ""
	if err != nil {
		note = "  (interrupted — partial)"
	}
	fmt.Fprintf(&b, "detected %d / %d faults (%.2f%% coverage)%s\n",
		res.Detected, res.Faults, 100*float64(res.Detected)/float64(res.Faults), note)
	res.Output = b.String()
	res.Extras = map[string]float64{
		"faults":   float64(res.Faults),
		"detected": float64(res.Detected),
	}
	if res.Faults > 0 {
		res.Extras["coverage"] = 100 * float64(res.Detected) / float64(res.Faults)
	}
	return err
}

// Diagnosis runs the front half of a diagnose job — screen the full
// collapsed fault list, collect the chain-affecting candidates, and
// build the response-signature dictionary over all of them — and
// returns the pieces. The collapsed list's length is announced as the
// run's journal axis event. The diagnose CLI's -inject path reuses it
// for interactive localization.
func Diagnosis(ctx context.Context, sp Spec, cache *engine.Cache, col *obs.Collector) (*scan.Design, []core.Screened, []fault.Fault, *diagnose.Dictionary, error) {
	if err := sp.Normalize(); err != nil {
		return nil, nil, nil, nil, err
	}
	d, err := sp.BuildDesign()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	faults := engine.Resolve(cache).ForObs(d.C, col).CollapsedFaults()
	col.Journal().Emit(journal.Axis(len(faults)))
	screened, err := core.ScreenCtx(ctx, d, faults, core.ScreenOptions{
		Workers: sp.Workers, Cache: cache, Obs: col,
	})
	if err != nil {
		return d, nil, nil, nil, err
	}
	var affecting []fault.Fault
	for i := range screened {
		if screened[i].Cat != core.Cat3 {
			affecting = append(affecting, screened[i].Fault)
		}
	}
	sp2 := col.Phase("dictionary")
	dict, err := diagnose.BuildCtx(ctx, d, affecting, diagnose.DefaultSequences(d, uint64(sp.Seed)), sp.Workers, cache, col)
	sp2.End()
	if err != nil {
		return d, screened, affecting, nil, err
	}
	return d, screened, affecting, dict, nil
}

func runDiagnose(ctx context.Context, sp Spec, cache *engine.Cache, col *obs.Collector, res *Result) error {
	d, screened, affecting, dict, err := Diagnosis(ctx, sp, cache, col)
	if d != nil {
		res.Circuit, res.Hash = d.C.Name, d.C.StructuralHash()
	}
	if err != nil {
		return err
	}
	res.Faults = len(screened)
	for i := range affecting {
		if err := ctx.Err(); err != nil {
			return err
		}
		res.Candidates++
		sig := dict.Observe(&diagnose.SimulatedDevice{C: d.C, Hidden: &affecting[i]})
		if sig == dict.GoodSignature() {
			res.Silent++
			continue
		}
		m := dict.Match(sig)
		res.Matches += len(m)
		if len(m) == 1 {
			res.Exact++
		} else {
			res.Ambiguous++
		}
	}
	diagnosable := res.Exact + res.Ambiguous
	var b strings.Builder
	b.WriteString(FormatDiagnoseHeader(res.Circuit, res.Candidates))
	fmt.Fprintf(&b, "diagnosable: %d (%.1f%%)  exact: %d  ambiguous: %d  silent: %d\n",
		diagnosable, 100*float64(diagnosable)/float64(res.Candidates), res.Exact, res.Ambiguous, res.Silent)
	if diagnosable > 0 {
		fmt.Fprintf(&b, "mean candidates per diagnosis: %.2f\n", float64(res.Matches)/float64(diagnosable))
	}
	res.Output = b.String()
	res.Extras = map[string]float64{
		"candidates":  float64(res.Candidates),
		"diagnosable": float64(diagnosable),
		"exact":       float64(res.Exact),
		"silent":      float64(res.Silent),
	}
	return nil
}

// resultHits distills a run's per-kind "hits" figure, the one the
// unit_end event carries and the live view's detected column shows:
// fault detections (faultsim), chain-affecting verdicts (screen),
// generated tests (atpg), resolved candidates (diagnose), detected
// affecting faults (flow).
func resultHits(r *Result) int {
	switch r.Kind {
	case KindFaultSim:
		return r.Detected
	case KindScreen:
		return r.Easy + r.Hard
	case KindATPG:
		return r.Found
	case KindDiagnose:
		return r.Exact + r.Ambiguous
	case KindFlow:
		if r.Report != nil {
			return r.Report.Affecting() - r.Report.Undetected()
		}
	}
	return 0
}

// FlowExtras distills a flow report's headline scalars for the run
// ledger: fault totals and the chain-affecting fault coverage, the
// paper's headline metric (fsctstats trends and drift-checks these
// keys). Shared by fsctest and daemon flow jobs.
func FlowExtras(r *core.Report) map[string]float64 {
	ex := map[string]float64{
		"faults":     float64(r.Faults),
		"undetected": float64(r.Undetected()),
	}
	if aff := r.Affecting(); aff > 0 {
		ex["coverage"] = 100 * float64(aff-r.Undetected()) / float64(aff)
	}
	return ex
}

// FormatScreen renders a screening job's report from screening
// verdicts. The daemon and its e2e tests reproduce a screen job's
// output through it.
func FormatScreen(name string, screened []core.Screened) string {
	easy, hard, unaff := countScreened(screened)
	return formatScreenCounts(name, len(screened), easy, hard, unaff)
}

// countScreened counts screening verdicts by category.
func countScreened(screened []core.Screened) (easy, hard, unaff int) {
	for i := range screened {
		switch screened[i].Cat {
		case core.Cat1:
			easy++
		case core.Cat2:
			hard++
		default:
			unaff++
		}
	}
	return easy, hard, unaff
}

// formatScreenCounts is FormatScreen over counted verdicts.
func formatScreenCounts(name string, total, easy, hard, unaff int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %s: %d faults screened\n", name, total)
	fmt.Fprintf(&b, "category 1 (easy): %d\ncategory 2 (hard): %d\nunaffecting: %d\n", easy, hard, unaff)
	return b.String()
}

// FormatDiagnoseHeader renders the dictionary header line shared by
// diagnose job reports and the diagnose CLI's interactive mode.
func FormatDiagnoseHeader(name string, candidates int) string {
	return fmt.Sprintf("circuit %s: dictionary over %d chain-affecting faults\n", name, candidates)
}
