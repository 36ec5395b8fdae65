package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/atpg"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/scan"
)

// Params tunes the three-step flow. Zero values select the paper's
// settings.
type Params struct {
	// Grouping distances (paper Section 6). When zero they default to
	// LARGE_DIST = max(0.6*maxsize, 50), MED_DIST = max(0.25*maxsize, 25)
	// and DIST = max(0.15*maxsize, 20) with maxsize the longest chain.
	LargeDist, MedDist, Dist int

	AltExtraCycles  int // extra cycles appended to the alternating test (default 8)
	CombBacktracks  int // PODEM backtrack limit in step 2 (default 250)
	SeqBacktracks   int // PODEM backtrack limit in step 3 groups (default 400)
	FinalBacktracks int // PODEM backtrack limit for f_final (default 25000)
	MaxFrames       int // frame cap for unrolled models (default 5)

	// SimulateAlternatingOnHard additionally fault-simulates the
	// alternating sequence on category-2 faults and drops any detected
	// ones before step 2 (an optimization the paper does not apply;
	// off by default for fidelity).
	SimulateAlternatingOnHard bool

	// SkipStep2 sends every hard fault straight to the grouped
	// sequential ATPG, bypassing combinational ATPG + sequential fault
	// simulation. This is the ablation that motivates the paper's
	// pipeline: step 3 alone is far more expensive.
	SkipStep2 bool

	// NoCompaction disables the per-vector fault dropping in step 2:
	// PODEM then runs for every hard fault and the vector set grows
	// accordingly (ablation for the compaction design choice).
	NoCompaction bool

	// RandomVectors replaces step 2's combinational ATPG with a random
	// scan-mode test set of this many shift windows — the paper's
	// prescription for partial scan ("in a partial scan environment, we
	// can use a test set of random vectors"), where the combinational
	// model cannot assume every flip-flop is loadable. Partial-scan
	// designs use this path automatically (auto-sized when 0); full-scan
	// designs use it only when set explicitly.
	RandomVectors int

	// Workers shards the fault axis of screening and every fault
	// simulation across this many goroutines (0 = GOMAXPROCS, 1 =
	// serial). Reports are identical at any width.
	Workers int

	// Eval selects the fault-simulation backend (engine.Auto picks per
	// run). Screening and the step-2 dropper are combinational and
	// always use the compiled evaluator.
	Eval engine.Backend

	// Engine supplies the shared circuit-artifact cache every phase
	// draws derived structures from (compiled programs, collapsed fault
	// lists, combinational models, SCOAP tables). Nil selects the
	// process-wide engine.Default(); engine.Bypass() forces a cold
	// rebuild in every phase (ablation — the report is byte-identical
	// either way).
	Engine *engine.Cache

	// Obs, when non-nil, collects run metrics: per-phase wall time
	// (screen, step1.alternating, step2, step3), per-category fault
	// counters, ATPG engine statistics (atpg.comb.*, atpg.seq.*,
	// atpg.final.*), fault-simulation and worker-pool activity. The
	// final snapshot lands in Report.Metrics. Nil (the default) keeps
	// the flow uninstrumented at ~zero cost.
	Obs *obs.Collector
}

func (p Params) withDefaults(maxChain int) Params {
	maxOf := func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}
	if p.LargeDist == 0 {
		p.LargeDist = maxOf(int(0.6*float64(maxChain)), 50)
	}
	if p.MedDist == 0 {
		p.MedDist = maxOf(int(0.25*float64(maxChain)), 25)
	}
	if p.Dist == 0 {
		p.Dist = maxOf(int(0.15*float64(maxChain)), 20)
	}
	if p.AltExtraCycles == 0 {
		p.AltExtraCycles = 8
	}
	if p.CombBacktracks == 0 {
		p.CombBacktracks = 250
	}
	if p.SeqBacktracks == 0 {
		p.SeqBacktracks = 400
	}
	if p.FinalBacktracks == 0 {
		p.FinalBacktracks = 25000
	}
	if p.MaxFrames == 0 {
		p.MaxFrames = 5
	}
	return p
}

// StepStats aggregates one flow step's outcome.
type StepStats struct {
	Detected     int
	Undetectable int
	Undetected   int
	CPU          time.Duration
}

// Report is the per-circuit result, mirroring the paper's Tables 1-3 and
// Figure 5.
type Report struct {
	Circuit string
	Gates   int
	FFs     int
	Faults  int // total considered faults (collapsed, scan-mode circuit)
	Chains  int

	// StructuralHash is the scan-mode circuit's structural digest — the
	// engine cache key — identifying the exact structure this report
	// describes, so runs can be correlated across processes and
	// machines (the run ledger stores it per record).
	StructuralHash uint64 `json:"structural_hash,omitempty"`

	// Screening (Table 2).
	Easy      int // category 1
	Hard      int // category 2 (f_hard)
	ScreenCPU time.Duration

	// Step 1: alternating sequence verification.
	EasyConfirmed int // category-1 faults actually caught by the alternating test
	EasyEscapes   int // category-1 faults it missed (appended to f_hard)

	// Step 2: combinational ATPG + sequential fault simulation (Table 3
	// left half) over f_hard.
	Step2        StepStats
	Step2Vectors int

	// Step 3: grouped sequential ATPG (Table 3 right half).
	COCircuits      int // increased-C/O circuits built for groups 1-3
	FinalCOCircuits int // circuits built for the final per-fault pass
	Step3           StepStats
	TranslationMiss int // generated-but-unconfirmed sequential tests

	// Figure 5: cumulative faults detected after each simulated vector
	// of the step-2 test set.
	Profile []int

	// Remaining undetected faults, for inspection.
	UndetectedFaults []fault.Fault

	// Metrics is the observability snapshot for this run; nil unless
	// Params.Obs was set.
	Metrics *obs.Metrics `json:"Metrics,omitempty"`

	// Provenance holds journal-replay explanations for the faults the
	// caller asked about (fsctest -why); nil otherwise.
	Provenance []*Provenance `json:"provenance,omitempty"`
}

// Undetected returns the final number of undetected chain-affecting
// faults (the paper's headline metric).
func (r *Report) Undetected() int { return len(r.UndetectedFaults) }

// Affecting returns the number of faults that affect the scan chain.
func (r *Report) Affecting() int { return r.Easy + r.Hard }

// simOptions assembles the fault-simulation options the flow's phases
// share, threading the evaluator backend and artifact cache through.
func (p Params) simOptions(stopEarly bool) faultsim.Options {
	return faultsim.Options{
		StopWhenAllDetected: stopEarly,
		Workers:             p.Workers,
		Eval:                p.Eval,
		Cache:               p.Engine,
		Obs:                 p.Obs,
	}
}

// RunCtx executes the full methodology on a scan design. Cancellation
// is observed at fault-batch and ATPG-backtrack boundaries; when ctx
// fires the flow stops where it is, and returns the partially filled report alongside
// an error wrapping the context error — counters and phase results
// accumulated so far are valid, later phases simply report zero. The
// report is non-nil whenever the design verifies. A nil context behaves
// like context.Background.
func RunCtx(ctx context.Context, d *scan.Design, p Params) (*Report, error) {
	if err := d.Verify(); err != nil {
		return nil, fmt.Errorf("core: design does not verify: %v", err)
	}
	p = p.withDefaults(d.MaxChainLen())
	st := d.C.Stat()
	rep := &Report{
		Circuit:        d.C.Name,
		Gates:          st.Gates,
		FFs:            st.FFs,
		Chains:         len(d.Chains),
		StructuralHash: d.C.StructuralHash(),
	}
	col := p.Obs
	finish := func(err error) (*Report, error) {
		if col.Enabled() {
			rep.Metrics = col.Snapshot()
		}
		if err != nil {
			return rep, fmt.Errorf("core: flow interrupted: %w", err)
		}
		return rep, nil
	}

	arts := engine.Resolve(p.Engine).ForObs(d.C, p.Obs)
	faults := arts.CollapsedFaults()
	rep.Faults = len(faults)

	// ---- Screening (Section 3) ----
	span := col.Phase("screen")
	t0 := time.Now()
	screened, err := ScreenCtx(ctx, d, faults, ScreenOptions{Workers: p.Workers, Cache: p.Engine, Obs: col})
	rep.ScreenCPU = time.Since(t0)
	span.End()
	if err != nil {
		return finish(err)
	}

	var easy, hard []Screened
	for _, s := range screened {
		switch s.Cat {
		case Cat1:
			easy = append(easy, s)
		case Cat2:
			hard = append(hard, s)
		}
	}
	rep.Easy, rep.Hard = len(easy), len(hard)

	// ---- Step 1: alternating sequence ----
	span = col.Phase("step1.alternating")
	alt := faultsim.Sequence(d.AlternatingSequence(p.AltExtraCycles))
	easyFaults := make([]fault.Fault, len(easy))
	for i := range easy {
		easyFaults[i] = easy[i].Fault
	}
	altRes, err := faultsim.RunCtx(ctx, d.C, alt, easyFaults, p.simOptions(false))
	if err != nil {
		span.End()
		return finish(err)
	}
	rep.EasyConfirmed = altRes.NumDetected()
	for _, i := range altRes.Undetected() {
		// Safety net: a category-1 fault the alternating sequence missed
		// is handed to the later steps rather than assumed covered.
		hard = append(hard, easy[i])
		rep.EasyEscapes++
	}
	if p.SimulateAlternatingOnHard && len(hard) > 0 {
		hf := make([]fault.Fault, len(hard))
		for i := range hard {
			hf[i] = hard[i].Fault
		}
		hres, herr := faultsim.RunCtx(ctx, d.C, alt, hf, p.simOptions(false))
		if herr != nil {
			span.End()
			return finish(herr)
		}
		var keep []Screened
		for i := range hard {
			if hres.DetectedAt[i] < 0 {
				keep = append(keep, hard[i])
			} else {
				rep.Step2.Detected++ // credited to the cheap phase
			}
		}
		hard = keep
	}
	span.End()
	if col.Enabled() {
		col.Counter("step1.confirmed").Add(int64(rep.EasyConfirmed))
		col.Counter("step1.escapes").Add(int64(rep.EasyEscapes))
		col.Notef("step1: %d/%d easy faults confirmed by the alternating test, %d escapes rejoin f_hard",
			rep.EasyConfirmed, len(easyFaults), rep.EasyEscapes)
	}

	// ---- Step 2: combinational ATPG + sequential fault simulation ----
	span = col.Phase("step2")
	t0 = time.Now()
	var remaining []Screened
	switch {
	case p.SkipStep2:
		remaining = hard
		rep.Step2.Undetected = len(hard)
	case p.RandomVectors > 0 || d.Partial():
		remaining, err = runStep2Random(ctx, d, hard, p, rep)
	default:
		remaining, err = runStep2(ctx, d, hard, p, rep)
	}
	rep.Step2.CPU = time.Since(t0)
	span.End()
	if err != nil {
		return finish(err)
	}
	if col.Enabled() {
		col.Counter("step2.detected").Add(int64(rep.Step2.Detected))
		col.Counter("step2.undetectable").Add(int64(rep.Step2.Undetectable))
		col.Counter("step2.vectors").Add(int64(rep.Step2Vectors))
		col.Notef("step2: %d detected, %d proven undetectable, %d vectors, %d faults remain",
			rep.Step2.Detected, rep.Step2.Undetectable, rep.Step2Vectors, len(remaining))
	}

	// ---- Step 3: grouped sequential ATPG with enhanced C/O ----
	span = col.Phase("step3")
	t0 = time.Now()
	err = runStep3(ctx, d, remaining, p, rep)
	rep.Step3.CPU = time.Since(t0)
	span.End()
	if err != nil {
		return finish(err)
	}
	if col.Enabled() {
		col.Counter("step3.detected").Add(int64(rep.Step3.Detected))
		col.Counter("step3.undetectable").Add(int64(rep.Step3.Undetectable))
		col.Counter("step3.undetected").Add(int64(rep.Step3.Undetected))
		col.Counter("step3.models").Add(int64(rep.COCircuits))
		col.Counter("step3.final_models").Add(int64(rep.FinalCOCircuits))
		col.Counter("step3.translation_miss").Add(int64(rep.TranslationMiss))
		col.Notef("step3: %d detected, %d undetectable, %d undetected over %d+%d C/O models",
			rep.Step3.Detected, rep.Step3.Undetectable, rep.Step3.Undetected,
			rep.COCircuits, rep.FinalCOCircuits)
	}
	return finish(nil)
}

// runStep2Random is the paper's partial-scan variant of step 2: a
// random scan-mode test set fault-simulated sequentially with fault
// dropping. Random vectors cannot prove undetectability, so everything
// undetected moves on to step 3.
func runStep2Random(ctx context.Context, d *scan.Design, hard []Screened, p Params, rep *Report) ([]Screened, error) {
	if len(hard) == 0 {
		return nil, nil
	}
	L := d.MaxChainLen()
	nVec := p.RandomVectors
	if nVec == 0 {
		nVec = 2 * len(hard)
		if nVec < 128 {
			nVec = 128
		}
		if nVec > 2048 {
			nVec = 2048
		}
	}
	rep.Step2Vectors = nVec
	seq := randomSequence(d, (nVec+1)*L, 0x7a11d5eed)
	hf := make([]fault.Fault, len(hard))
	for i := range hard {
		hf[i] = hard[i].Fault
	}
	res, err := faultsim.RunCtx(ctx, d.C, seq, hf, p.simOptions(true))
	if err != nil {
		return nil, err
	}

	if L > 0 {
		bounds := make([]int, nVec+1)
		for i := range bounds {
			bounds[i] = i * L
		}
		rep.Profile = res.Profile(bounds)
	}
	var remaining []Screened
	for i := range hard {
		if res.DetectedAt[i] >= 0 {
			rep.Step2.Detected++
		} else {
			remaining = append(remaining, hard[i])
		}
	}
	rep.Step2.Undetected = len(remaining)
	return remaining, nil
}

// runStep2 targets f_hard with PODEM on the scan-mode combinational
// model, converts the vectors to a scan sequence, and fault-simulates
// the whole sequence sequentially; it returns the still-undetected
// screened faults.
func runStep2(ctx context.Context, d *scan.Design, hard []Screened, p Params, rep *Report) ([]Screened, error) {
	if len(hard) == 0 {
		return nil, nil
	}
	arts := engine.Resolve(p.Engine).ForObs(d.C, p.Obs)
	cm, err := arts.CombModel()
	if err != nil {
		return nil, err
	}
	fixed := make(map[netlist.SignalID]logic.V, len(d.Assignments))
	for k, v := range d.Assignments {
		fixed[k] = v // PI IDs carry over into the comb model
	}
	// The model and its SCOAP tables come from the cache: step 3's final
	// pass asks for the same (circuit, fixed assignment) pair and shares
	// one controllability/observability computation with this call.
	model, tables, err := arts.CombSearch(fixed)
	if err != nil {
		return nil, err
	}
	eng := atpg.NewEngineTables(model, tables)
	eng.Instrument(p.Obs, "atpg.comb")

	// Static compaction: after each generated vector, a one-cycle packed
	// fault simulation of the combinational model drops every hard fault
	// the vector already covers, so PODEM only runs for still-uncovered
	// faults and the vector set stays small (the paper's Figure 5 makes
	// the same point: the early vectors carry almost all detections).
	dropper := newCombDropper(d, cm, hard, p.Workers, p.Engine, p.Obs)

	rec := p.Obs.Journal()
	redundant := make([]bool, len(hard))
	var vectors []scan.Vector
	for i := range hard {
		if !p.NoCompaction && dropper.covered.Get(i) {
			continue
		}
		done := timeATPG(rec, "atpg.comb", hard[i].Fault)
		res, gerr := eng.GenerateCtx(ctx, cm.MapFault(hard[i].Fault), p.CombBacktracks)
		if gerr != nil {
			return nil, gerr
		}
		done(res.Status, res.Backtracks)
		switch res.Status {
		case atpg.Found:
			v := scan.Vector{
				FFs: make(map[netlist.SignalID]logic.V),
				PIs: make(map[netlist.SignalID]logic.V),
			}
			for in, val := range res.Assignment {
				// Model inputs are original PIs and FF outputs (same IDs).
				if d.C.IsFF(in) {
					v.FFs[in] = val
				} else {
					v.PIs[in] = val
				}
			}
			vectors = append(vectors, v)
			dropper.drop(v)
		case atpg.Redundant:
			// Combinationally undetectable in scan mode implies
			// sequentially undetectable (paper Section 4).
			redundant[i] = true
			rep.Step2.Undetectable++
		}
	}
	rep.Step2Vectors = len(vectors)

	seq := faultsim.Sequence(d.ConvertVectors(vectors))
	// Simulate faults ordered by predicted covering vector so each
	// packed batch finishes (and early-exits) as soon as possible.
	perm := make([]int, len(hard))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int {
		ca, cb := dropper.coveredAt[a], dropper.coveredAt[b]
		if ca < 0 {
			ca = 1 << 30
		}
		if cb < 0 {
			cb = 1 << 30
		}
		return ca - cb
	})
	hf := make([]fault.Fault, len(hard))
	for i, pi := range perm {
		hf[i] = hard[pi].Fault
	}
	permRes, err := faultsim.RunCtx(ctx, d.C, seq, hf, p.simOptions(true))
	if err != nil {
		return nil, err
	}
	res := &faultsim.Result{DetectedAt: make([]int, len(hard))}
	for i, pi := range perm {
		res.DetectedAt[pi] = permRes.DetectedAt[i]
	}

	// Figure 5 profile: cumulative detections per simulated vector.
	L := d.MaxChainLen()
	if L > 0 && len(seq) > 0 {
		nv := len(seq) / L
		bounds := make([]int, nv+1)
		for i := range bounds {
			bounds[i] = i * L
		}
		rep.Profile = res.Profile(bounds)
	}

	var remaining []Screened
	for i := range hard {
		switch {
		case redundant[i]:
			// Proven combinationally redundant, hence sequentially
			// undetectable; counted above. (The proof is trusted over
			// simulation: a detection here would indicate an engine bug,
			// which the unit tests guard against.)
		case res.DetectedAt[i] >= 0:
			rep.Step2.Detected++
		default:
			remaining = append(remaining, hard[i])
		}
	}
	rep.Step2.Undetected = len(remaining)
	return remaining, nil
}
