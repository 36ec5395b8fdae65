package task

import (
	"context"
	"fmt"
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

// combBacktracks is the PODEM backtrack limit for standalone atpg
// jobs — flow step 2's default, so the two agree.
const combBacktracks = 250

// Partial is the mergeable result of executing one Unit: the unit's
// identity and resolved fault range, the circuit identity for the
// ledger, and per-kind accumulators covering exactly [Lo, Hi). A
// Partial marshals to JSON so remote workers can return it on the
// wire; Merge reassembles any contiguous set of Partials into the
// byte-identical single-node Result.
type Partial struct {
	// Kind echoes the unit's job kind.
	Kind string `json:"kind"`
	// Index and Count echo the unit's position in its plan.
	Index int `json:"index"`
	Count int `json:"count"`
	// Lo and Hi are the resolved fault-axis slice this partial covers
	// (a whole-axis unit resolves Hi = -1 to the actual length).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Faults is the full axis length (all units of a plan agree).
	Faults int `json:"faults"`
	// Circuit and Hash identify the materialized circuit for the
	// ledger record.
	Circuit string `json:"circuit"`
	Hash    uint64 `json:"hash,string,omitempty"`

	// Report is the flow kind's (whole-axis) report.
	Report *core.Report `json:"report,omitempty"`
	// Design is the flow kind's scan design, for in-process consumers
	// (fsctest -why); it does not travel on the wire.
	Design *scan.Design `json:"-"`

	// Easy, Hard and Unaffecting count screening verdicts (screen).
	Easy        int `json:"easy,omitempty"`
	Hard        int `json:"hard,omitempty"`
	Unaffecting int `json:"unaffecting,omitempty"`

	// Found, Redundant and Aborted count PODEM outcomes (atpg).
	Found     int `json:"found,omitempty"`
	Redundant int `json:"redundant,omitempty"`
	Aborted   int `json:"aborted,omitempty"`

	// DetectedAt holds first-detection cycles for faults [Lo, Hi)
	// (faultsim; -1 = undetected). Gates, FFs and Cycles carry the
	// report header's circuit stats.
	DetectedAt []int `json:"detected_at,omitempty"`
	Gates      int   `json:"gates,omitempty"`
	FFs        int   `json:"ffs,omitempty"`
	Cycles     int   `json:"cycles,omitempty"`

	// Candidates counts the chain-affecting faults in [Lo, Hi);
	// Exact, Ambiguous, Silent and Matches accumulate their diagnosis
	// outcomes (diagnose).
	Candidates int `json:"candidates,omitempty"`
	Exact      int `json:"exact,omitempty"`
	Ambiguous  int `json:"ambiguous,omitempty"`
	Silent     int `json:"silent,omitempty"`
	Matches    int `json:"matches,omitempty"`
}

// Execute runs one work-unit. The returned error is context.Canceled
// (possibly wrapped) when the run was canceled mid-flight; the partial
// result returned alongside is still meaningful then. A nil cache
// selects engine.Default(); a nil collector runs uninstrumented. When
// the context carries a Tracker (WithTracker), Execute reports the
// unit's start and finish to it. When the collector records a
// journal, the unit is bracketed by unit_begin/unit_end events — the
// span boundaries the tracing layer (internal/trace) assembles into
// per-unit spans under the spec's TraceParent.
func Execute(ctx context.Context, u Unit, cache *engine.Cache, col *obs.Collector) (p *Partial, err error) {
	sp := u.Spec
	if err := sp.Normalize(); err != nil {
		return nil, err
	}
	if tr := TrackerFrom(ctx); tr != nil {
		tr.UnitStarted(u)
		defer func() { tr.UnitFinished(u, p, err) }()
	}
	if rec := col.Journal(); rec.Enabled() {
		rec.Emit(journal.UnitBegin(u.Index, u.Count, u.Lo, u.Hi))
		start := time.Now()
		// The end event always lands — also on cancel or failure — so
		// partial traces keep their unit boundaries; the resolved axis
		// slice comes from the partial when the kind resolved it.
		defer func() {
			lo, hi := u.Lo, u.Hi
			if p != nil {
				lo, hi = p.Lo, p.Hi
			}
			rec.Emit(journal.UnitEnd(u.Index, u.Count, lo, hi, time.Since(start)))
		}()
	}
	switch sp.Kind {
	case KindFlow:
		return executeFlow(ctx, sp, u, cache, col)
	case KindScreen:
		return executeScreen(ctx, sp, u, cache, col)
	case KindATPG:
		return executeATPG(ctx, sp, u, cache, col)
	case KindFaultSim:
		return executeFaultSim(ctx, sp, u, cache, col)
	case KindDiagnose:
		return executeDiagnose(ctx, sp, u, cache, col)
	}
	return nil, fmt.Errorf("task: unknown kind %q", sp.Kind)
}

// newPartial seeds the unit-identity fields shared by every kind.
func newPartial(sp Spec, u Unit) *Partial {
	return &Partial{Kind: sp.Kind, Index: u.Index, Count: u.Count, Lo: u.Lo, Hi: u.Hi}
}

func executeFlow(ctx context.Context, sp Spec, u Unit, cache *engine.Cache, col *obs.Collector) (*Partial, error) {
	d, err := sp.BuildDesign()
	if err != nil {
		return nil, err
	}
	p := newPartial(sp, u)
	p.Circuit, p.Hash, p.Design = d.C.Name, d.C.StructuralHash(), d
	rep, rerr := core.RunCtx(ctx, d, core.Params{
		Workers: sp.Workers, Eval: sp.backend(), Engine: cache, Obs: col,
	})
	p.Report = rep
	if rep != nil {
		p.Faults = rep.Faults
		p.Lo, p.Hi = 0, rep.Faults
	}
	return p, rerr
}

func executeScreen(ctx context.Context, sp Spec, u Unit, cache *engine.Cache, col *obs.Collector) (*Partial, error) {
	d, err := sp.BuildDesign()
	if err != nil {
		return nil, err
	}
	faults := engine.Resolve(cache).ForObs(d.C, col).CollapsedFaults()
	lo, hi, err := u.slice(len(faults))
	if err != nil {
		return nil, err
	}
	p := newPartial(sp, u)
	p.Circuit, p.Hash = d.C.Name, d.C.StructuralHash()
	p.Faults, p.Lo, p.Hi = len(faults), lo, hi
	screened, serr := core.ScreenCtx(ctx, d, faults[lo:hi], core.ScreenOptions{
		Workers: sp.Workers, Cache: cache, Obs: col,
	})
	if serr != nil {
		return p, serr
	}
	for i := range screened {
		switch screened[i].Cat {
		case core.Cat1:
			p.Easy++
		case core.Cat2:
			p.Hard++
		default:
			p.Unaffecting++
		}
	}
	return p, nil
}

func executeATPG(ctx context.Context, sp Spec, u Unit, cache *engine.Cache, col *obs.Collector) (*Partial, error) {
	d, err := sp.BuildDesign()
	if err != nil {
		return nil, err
	}
	arts := engine.Resolve(cache).ForObs(d.C, col)
	fixed := make(map[netlist.SignalID]logic.V, len(d.Assignments))
	for k, v := range d.Assignments {
		fixed[k] = v
	}
	model, tables, err := arts.CombSearch(fixed)
	if err != nil {
		return nil, err
	}
	cm, err := arts.CombModel()
	if err != nil {
		return nil, err
	}
	faults := engine.Resolve(cache).ForObs(cm.C, col).CollapsedFaults()
	lo, hi, err := u.slice(len(faults))
	if err != nil {
		return nil, err
	}
	p := newPartial(sp, u)
	p.Circuit, p.Hash = d.C.Name, d.C.StructuralHash()
	p.Faults, p.Lo, p.Hi = len(faults), lo, hi

	eng := atpg.NewEngineTables(model, tables)
	eng.Instrument(col, "atpg.comb")
	for _, f := range faults[lo:hi] {
		r, gerr := eng.GenerateCtx(ctx, f, combBacktracks)
		if gerr != nil {
			return p, gerr
		}
		switch r.Status {
		case atpg.Found:
			p.Found++
		case atpg.Redundant:
			p.Redundant++
		default:
			p.Aborted++
		}
	}
	return p, nil
}

func executeFaultSim(ctx context.Context, sp Spec, u Unit, cache *engine.Cache, col *obs.Collector) (*Partial, error) {
	c, err := sp.BuildCircuit()
	if err != nil {
		return nil, err
	}
	var faults []fault.Fault
	if sp.Uncollapsed {
		faults = fault.All(c)
	} else {
		faults = engine.Resolve(cache).ForObs(c, col).CollapsedFaults()
	}
	seq, err := sp.Stimulus(c)
	if err != nil {
		return nil, err
	}
	lo, hi, err := u.slice(len(faults))
	if err != nil {
		return nil, err
	}
	st := c.Stat()
	p := newPartial(sp, u)
	p.Circuit, p.Hash = c.Name, c.StructuralHash()
	p.Faults, p.Lo, p.Hi = len(faults), lo, hi
	p.Gates, p.FFs, p.Cycles = st.Gates, st.FFs, len(seq)
	res, rerr := faultsim.RunCtx(ctx, c, seq, faults[lo:hi], faultsim.Options{
		Workers: sp.Workers, Eval: sp.backend(), ConeThreshold: sp.ConeThreshold,
		Cache: cache, Obs: col,
	})
	if res != nil {
		p.DetectedAt = res.DetectedAt
	}
	return p, rerr
}

// Diagnosis runs the shared front half of a diagnose job — screen the
// full collapsed fault list, collect the chain-affecting candidates,
// and build the response-signature dictionary over all of them — and
// returns the pieces. Every diagnose unit runs it (the dictionary must
// cover every candidate regardless of which slice a unit diagnoses),
// and the diagnose CLI's -inject path reuses it for interactive
// localization.
func Diagnosis(ctx context.Context, sp Spec, cache *engine.Cache, col *obs.Collector) (*scan.Design, []core.Screened, []fault.Fault, *diagnose.Dictionary, error) {
	if err := sp.Normalize(); err != nil {
		return nil, nil, nil, nil, err
	}
	d, err := sp.BuildDesign()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	faults := engine.Resolve(cache).ForObs(d.C, col).CollapsedFaults()
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
	dict, err := diagnose.BuildCtx(ctx, d, affecting, diagnose.DefaultSequences(d, uint64(sp.Seed)), sp.Workers, col)
	sp2.End()
	if err != nil {
		return d, screened, affecting, nil, err
	}
	return d, screened, affecting, dict, nil
}

func executeDiagnose(ctx context.Context, sp Spec, u Unit, cache *engine.Cache, col *obs.Collector) (*Partial, error) {
	d, screened, _, dict, err := Diagnosis(ctx, sp, cache, col)
	p := newPartial(sp, u)
	if d != nil {
		p.Circuit, p.Hash = d.C.Name, d.C.StructuralHash()
	}
	if err != nil {
		return p, err
	}
	lo, hi, err := u.slice(len(screened))
	if err != nil {
		return nil, err
	}
	p.Faults, p.Lo, p.Hi = len(screened), lo, hi
	// The axis is the collapsed fault list; only the chain-affecting
	// faults inside [lo, hi) are diagnosis candidates. Walking the
	// screened list in index order reproduces the single-node candidate
	// order exactly.
	for i := lo; i < hi; i++ {
		if screened[i].Cat == core.Cat3 {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			return p, cerr
		}
		p.Candidates++
		hidden := screened[i].Fault
		sig := dict.Observe(&diagnose.SimulatedDevice{C: d.C, Hidden: &hidden})
		if sig == dict.GoodSignature() {
			p.Silent++
			continue
		}
		m := dict.Match(sig)
		p.Matches += len(m)
		if len(m) == 1 {
			p.Exact++
		} else {
			p.Ambiguous++
		}
	}
	return p, nil
}
