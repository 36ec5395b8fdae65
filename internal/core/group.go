package core

import (
	"context"
	"slices"

	"repro/internal/atpg"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/scan"
	"repro/internal/seqatpg"
)

// tryVectorFills converts vector v with its don't-care flip-flop bits
// filled first with zeros, then with deterministic pseudo-random
// patterns, fault-simulating each single-vector sequence until one
// detects f. The fill changes the chain data surrounding the corrupted
// capture, and with it whether the effect survives the shift-out.
func tryVectorFills(ctx context.Context, d *scan.Design, f fault.Fault, v scan.Vector, tries int, p Params) (bool, error) {
	rng := uint64(f.Signal)<<40 ^ uint64(f.Gate)<<16 ^ uint64(f.Pin)<<8 ^ uint64(f.Stuck) ^ 0x9e3779b97f4a7c15
	next := func() logic.V {
		rng = rng*6364136223846793005 + 1442695040888963407
		return logic.V((rng >> 33) & 1)
	}
	for try := 0; try < tries; try++ {
		vv := scan.Vector{FFs: make(map[netlist.SignalID]logic.V, len(d.C.FFs)), PIs: v.PIs}
		for k, val := range v.FFs {
			vv.FFs[k] = val
		}
		if try > 0 {
			for _, ff := range d.C.FFs {
				if _, ok := vv.FFs[ff]; !ok {
					vv.FFs[ff] = next()
				}
			}
		}
		seq := faultsim.Sequence(d.ConvertVectors([]scan.Vector{vv}))
		fr, err := faultsim.RunCtx(ctx, d.C, seq, []fault.Fault{f},
			faultsim.Options{Cache: p.Engine, Obs: p.Obs})
		if err != nil {
			return false, err
		}
		if fr.DetectedAt[0] >= 0 {
			return true, nil
		}
	}
	return false, nil
}

// coModel describes one increased-controllability/observability circuit
// (the paper's n-m.C,o-p.O): which flip-flops are treated as directly
// controllable and which D pins as directly observable, plus the faults
// to target on it.
type coModel struct {
	ctrl, obs map[netlist.SignalID]bool
	frames    int
	faults    []Screened
}

// span returns max(l_i) - min(l_j) of a single-chain fault.
func span(s *Screened) int {
	first, last, _ := s.Span()
	return last.Seg - first.Seg
}

// buildCO derives the enhanced sets for a fault cluster on one chain:
// the chain's flip-flops before location firstSeg are controllable, the
// ones from location lastSeg on are observable (their D pins are where
// the last corruption enters), and every flip-flop of an unaffected
// chain is both.
func buildCO(d *scan.Design, chain, firstSeg, lastSeg int, affected map[int]bool) (ctrl, obs map[netlist.SignalID]bool) {
	ctrl = make(map[netlist.SignalID]bool)
	obs = make(map[netlist.SignalID]bool)
	for ci := range d.Chains {
		ch := &d.Chains[ci]
		if ci != chain && !affected[ci] {
			for _, ff := range ch.FFs {
				ctrl[ff] = true
				obs[ff] = true
			}
			continue
		}
		if ci != chain {
			continue // affected other chain: no enhancement there
		}
		for pos, ff := range ch.FFs {
			if pos < firstSeg {
				ctrl[ff] = true
			}
			if pos >= lastSeg && lastSeg < ch.Len() {
				obs[ff] = true
			}
		}
	}
	return ctrl, obs
}

// distances are the paper's grouping distances (Section 6): spans of
// at least large go to group 1, spans of at least med to group 2, and
// group 3's windows are at most dist wide.
type distances struct{ large, med, dist int }

// groupDistances derives the distances from the longest chain:
// LARGE_DIST = max(0.6*maxsize, 50), MED_DIST = max(0.25*maxsize, 25)
// and DIST = max(0.15*maxsize, 20).
func groupDistances(maxChain int) distances {
	return distances{
		large: max(int(0.6*float64(maxChain)), 50),
		med:   max(int(0.25*float64(maxChain)), 25),
		dist:  max(int(0.15*float64(maxChain)), 20),
	}
}

// planGroups implements the paper's grouping (Section 5): multi-chain
// and wide-span faults form group 1 (individual models), medium spans
// form group 2 (one model per seed fault, compatible faults ride along),
// and the rest are partitioned into minimal DIST-wide clusters.
func planGroups(d *scan.Design, remaining []Screened, dist distances) []coModel {
	var models []coModel
	frames := func(sp int) int {
		return min(max(sp+2, 2), maxFrames)
	}

	var group1, group2 []Screened
	perChain := make(map[int][]Screened) // group 3, keyed by chain
	for _, s := range remaining {
		if len(s.Locs) == 0 {
			// Defensive: treat as group 1 with no enhancement.
			group1 = append(group1, s)
			continue
		}
		first, _, multi := s.Span()
		switch {
		case multi:
			group1 = append(group1, s)
		case len(s.Locs) > 1 && span(&s) >= dist.large:
			group1 = append(group1, s)
		case len(s.Locs) > 1 && span(&s) >= dist.med:
			group2 = append(group2, s)
		default:
			perChain[first.Chain] = append(perChain[first.Chain], s)
		}
	}

	affectedChains := func(s *Screened) map[int]bool {
		m := map[int]bool{}
		for _, l := range s.Locs {
			m[l.Chain] = true
		}
		return m
	}

	// Group 1: one maximally-enhanced model per fault.
	for _, s := range group1 {
		if len(s.Locs) == 0 {
			models = append(models, coModel{frames: frames(0), faults: []Screened{s}})
			continue
		}
		first, last, multi := s.Span()
		aff := affectedChains(&s)
		var ctrl, obs map[netlist.SignalID]bool
		if multi {
			// Enhance only the unaffected chains.
			ctrl, obs = buildCO(d, -1, 0, 0, aff)
		} else {
			ctrl, obs = buildCO(d, first.Chain, first.Seg, last.Seg, aff)
		}
		models = append(models, coModel{ctrl: ctrl, obs: obs, frames: frames(span(&s)), faults: []Screened{s}})
	}

	// Group 2: a model per seed fault; compatible group-2/3 faults of the
	// same chain whose span fits inside the seed's window join it.
	taken := make(map[*Screened]bool)
	slices.SortStableFunc(group2, func(a, b Screened) int { return span(&b) - span(&a) })
	for i := range group2 {
		s := &group2[i]
		if taken[s] {
			continue
		}
		taken[s] = true
		first, last, _ := s.Span()
		aff := affectedChains(s)
		ctrl, obs := buildCO(d, first.Chain, first.Seg, last.Seg, aff)
		m := coModel{ctrl: ctrl, obs: obs, frames: frames(span(s)), faults: []Screened{*s}}
		for j := i + 1; j < len(group2); j++ {
			o := &group2[j]
			of, ol, om := o.Span()
			if !taken[o] && !om && of.Chain == first.Chain && of.Seg >= first.Seg && ol.Seg <= last.Seg {
				taken[o] = true
				m.faults = append(m.faults, *o)
			}
		}
		models = append(models, m)
	}

	// Group 3: per chain, minimal number of DIST-wide windows (greedy
	// interval cover over sorted first-locations).
	// Chains in ascending order: map order would make the model order,
	// and with it the journal's event order, differ from run to run.
	chains := make([]int, 0, len(perChain))
	for chain := range perChain {
		chains = append(chains, chain)
	}
	slices.Sort(chains)
	for _, chain := range chains {
		faults := perChain[chain]
		slices.SortStableFunc(faults, func(a, b Screened) int {
			fa, _, _ := a.Span()
			fb, _, _ := b.Span()
			return fa.Seg - fb.Seg
		})
		i := 0
		for i < len(faults) {
			first, last, _ := faults[i].Span()
			lo := first.Seg
			hi := last.Seg
			cluster := []Screened{faults[i]}
			j := i + 1
			for j < len(faults) {
				_, jl, _ := faults[j].Span()
				nhi := hi
				if jl.Seg > nhi {
					nhi = jl.Seg
				}
				if nhi-lo > dist.dist {
					break
				}
				hi = nhi
				cluster = append(cluster, faults[j])
				j++
			}
			aff := map[int]bool{chain: true}
			ctrl, obs := buildCO(d, chain, lo, hi, aff)
			models = append(models, coModel{ctrl: ctrl, obs: obs, frames: frames(hi - lo), faults: cluster})
			i = j
		}
	}
	return models
}

// Step-3 fault states, as kept in runStep3's status map.
const (
	step3Open byte = iota
	step3Detected
	step3Undetectable
)

// step3Outcome is what one step-3 attempt decided about one fault. The
// pool index that owns the fault writes it; runStep3 folds the outcomes
// in model/queue order once the pool has returned.
type step3Outcome struct {
	status byte // step3Open, step3Detected or step3Undetectable
	miss   bool // a generated sequence failed confirmation (translation miss)
	built  bool // the final pass built a maximally-enhanced model
}

// runStep3 runs grouped sequential ATPG with confirmation fault
// simulation, then a final per-fault pass with a larger effort budget.
//
// Both passes run on the worker pool: one index is one C/O model in the
// grouped pass and one leftover fault in the final pass. planGroups
// puts every fault in exactly one model, and every attempt builds its
// own sequential model and confirms on its own, so an outcome depends
// only on its fault. Outcomes land in slots owned by their index and
// are folded in order, so the report is byte-identical at any worker
// count. A fault's journal events all come from the one index that owns
// it, so they keep their order; events of different faults may
// interleave.
//
// Undetectability is only ever claimed on a sound basis: combinational
// redundancy of the scan-mode model (which implies sequential
// undetectability, Section 4) proven with the large final backtrack
// budget. Exhausting a bounded-frame enhanced model is NOT such a proof
// — the enhanced model under-approximates what long shift sequences can
// set up — so those faults stay "undetected".
func runStep3(ctx context.Context, d *scan.Design, remaining []Screened, p Params, rep *Report) error {
	if len(remaining) == 0 {
		return nil
	}
	models := planGroups(d, remaining, groupDistances(d.MaxChainLen()))
	rep.COCircuits = len(models)

	// Grouped pass: one pool index per C/O model.
	grouped := make([][]step3Outcome, len(models))
	errs := make([]error, len(models))
	poolErr := par.DoCtx(ctx, p.Workers, len(models), func(_, i int) {
		grouped[i], errs[i] = runCOModel(ctx, d, models[i], p)
	})
	if err := firstErr(errs, poolErr); err != nil {
		return err
	}
	status := make(map[fault.Fault]byte, len(remaining))
	var finalQueue []Screened
	for i, m := range models {
		for j, s := range m.faults {
			o := grouped[i][j]
			if o.miss {
				rep.TranslationMiss++
			}
			if o.status == step3Detected {
				status[s.Fault] = step3Detected
			} else {
				finalQueue = append(finalQueue, s)
			}
		}
	}

	// Scan-mode combinational model for redundancy proofs and
	// final-pass vector retries. In a partial-scan design the model
	// would wrongly treat non-scan flip-flops as loadable and their D
	// pins as observable, so both the proofs and the retries are
	// disabled there (the paper's partial-scan setting relies on random
	// vectors and sequential ATPG only). The model and SCOAP tables come
	// from the artifact cache — step 2 asked for the same (circuit,
	// fixed assignment) pair, so nothing is recomputed here. A PODEM
	// engine keeps traversal scratch, so each worker builds its own over
	// the shared read-only tables.
	var cm *atpg.CombModel
	var engines *par.PerWorker[*atpg.Engine]
	if !d.Partial() {
		arts := engine.Resolve(p.Engine).ForObs(d.C, p.Obs)
		var err error
		cm, err = arts.CombModel()
		if err != nil {
			return err
		}
		fixed := make(map[netlist.SignalID]logic.V, len(d.Assignments))
		for k, v := range d.Assignments {
			fixed[k] = v
		}
		combModel, tables, err := arts.CombSearch(fixed)
		if err != nil {
			return err
		}
		engines = par.NewPerWorker(min(par.Workers(p.Workers), len(finalQueue)), func() *atpg.Engine {
			e := atpg.NewEngineTables(combModel, tables)
			e.Instrument(p.Obs, "atpg.final")
			return e
		})
	}

	// Final pass: one pool index per leftover fault.
	final := make([]step3Outcome, len(finalQueue))
	errs = make([]error, len(finalQueue))
	poolErr = par.DoCtx(ctx, p.Workers, len(finalQueue), func(w, i int) {
		var eng *atpg.Engine
		if engines != nil {
			eng = engines.Get(w)
		}
		final[i], errs[i] = finalAttempt(ctx, d, finalQueue[i], eng, cm, p)
	})
	if err := firstErr(errs, poolErr); err != nil {
		return err
	}
	for i, s := range finalQueue {
		o := final[i]
		if o.built {
			rep.FinalCOCircuits++
		}
		if o.miss {
			rep.TranslationMiss++
		}
		if o.status != step3Open {
			status[s.Fault] = o.status
		}
	}

	// Last resort before declaring faults undetected: a burst of random
	// scan-mode vectors. Faults whose activation state can only be
	// established THROUGH their own corrupted segment resist directed
	// generation (the models treat those flip-flops as uncontrollable),
	// but a lucky random load may still set it up.
	var open []fault.Fault
	var openIdx []int
	for i := range remaining {
		if status[remaining[i].Fault] == step3Open {
			open = append(open, remaining[i].Fault)
			openIdx = append(openIdx, i)
		}
	}
	if len(open) > 0 {
		seq := randomSequence(d, 120*d.MaxChainLen()+512, 0x5eed)
		fr, err := faultsim.RunCtx(ctx, d.C, seq, open, p.simOptions(true))
		if err != nil {
			return err
		}
		rescued := int64(0)
		for k := range open {
			if fr.DetectedAt[k] >= 0 {
				status[remaining[openIdx[k]].Fault] = step3Detected
				rescued++
			}
		}
		p.Obs.Counter("step3.random_rescued").Add(rescued)
	}

	for _, s := range remaining {
		switch status[s.Fault] {
		case step3Detected:
			rep.Step3.Detected++
		case step3Undetectable:
			rep.Step3.Undetectable++
		default:
			rep.Step3.Undetected++
			rep.UndetectedFaults = append(rep.UndetectedFaults, s.Fault)
		}
	}
	return nil
}

// firstErr returns the first per-index error of a pool run in index
// order, or else the pool's own context error.
func firstErr(errs []error, poolErr error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return poolErr
}

// confirm fault-simulates a generated sequence against f on the true
// circuit; only a confirmed detection counts as one.
func confirm(ctx context.Context, d *scan.Design, f fault.Fault, seq [][]logic.V, p Params) (bool, error) {
	fr, err := faultsim.RunCtx(ctx, d.C, faultsim.Sequence(seq), []fault.Fault{f},
		faultsim.Options{Cache: p.Engine, Obs: p.Obs})
	if err != nil {
		return false, err
	}
	return fr.DetectedAt[0] >= 0, nil
}

// runCOModel is one grouped-pass index: it builds model m's sequential
// ATPG circuit and targets each of its faults with the group budget.
func runCOModel(ctx context.Context, d *scan.Design, m coModel, p Params) ([]step3Outcome, error) {
	tm, err := seqatpg.Build(d, m.ctrl, m.obs, m.frames)
	if err != nil {
		return nil, err
	}
	tm.Instrument(p.Obs, "atpg.seq")
	rec := p.Obs.Journal()
	out := make([]step3Outcome, len(m.faults))
	for j, s := range m.faults {
		done := timeATPG(rec, "atpg.seq", s.Fault)
		res, err := tm.GenerateCtx(ctx, s.Fault, seqBacktracks)
		if err != nil {
			return nil, err
		}
		done(res.Status, res.Backtracks)
		if res.Status != atpg.Found {
			continue
		}
		hit, err := confirm(ctx, d, s.Fault, res.Sequence, p)
		if err != nil {
			return nil, err
		}
		if hit {
			out[j].status = step3Detected
		} else {
			out[j].miss = true
		}
	}
	return out, nil
}

// finalAttempt is one final-pass index: a deep combinational attempt on
// the scan-mode model (redundancy proof or a fresh vector) with eng,
// nil in a partial-scan design, then maximally-enhanced sequential ATPG
// with the large budget.
func finalAttempt(ctx context.Context, d *scan.Design, s Screened, eng *atpg.Engine, cm *atpg.CombModel, p Params) (step3Outcome, error) {
	rec := p.Obs.Journal()
	cres := atpg.Result{Status: atpg.Aborted}
	if eng != nil {
		done := timeATPG(rec, "atpg.final", s.Fault)
		var err error
		cres, err = eng.GenerateCtx(ctx, cm.MapFault(s.Fault), finalBacktracks)
		if err != nil {
			return step3Outcome{}, err
		}
		done(cres.Status, cres.Backtracks)
	}
	switch cres.Status {
	case atpg.Redundant:
		return step3Outcome{status: step3Undetectable}, nil
	case atpg.Found:
		// A fresh single vector, simulated on its own: the step-2 set
		// may simply have masked this fault's effect during scan-out.
		// Whether the corrupted capture survives the shift to the
		// scan-out depends on the surrounding chain data, so the
		// don't-care bits are retried with several random fills.
		v := scan.Vector{
			FFs: make(map[netlist.SignalID]logic.V),
			PIs: make(map[netlist.SignalID]logic.V),
		}
		for in, val := range cres.Assignment {
			if d.C.IsFF(in) {
				v.FFs[in] = val
			} else {
				v.PIs[in] = val
			}
		}
		hit, err := tryVectorFills(ctx, d, s.Fault, v, 9, p)
		if err != nil {
			return step3Outcome{}, err
		}
		if hit {
			return step3Outcome{status: step3Detected}, nil
		}
	}
	var ctrl, obs map[netlist.SignalID]bool
	fr := 2
	if len(s.Locs) > 0 {
		first, last, multi := s.Span()
		aff := map[int]bool{}
		for _, l := range s.Locs {
			aff[l.Chain] = true
		}
		if multi {
			ctrl, obs = buildCO(d, -1, 0, 0, aff)
			fr = maxFrames
		} else {
			ctrl, obs = buildCO(d, first.Chain, first.Seg, last.Seg, aff)
			fr = span(&s) + 2
		}
	}
	fr = min(fr, maxFrames+2)
	out := step3Outcome{built: true}
	tm, err := seqatpg.Build(d, ctrl, obs, fr)
	if err != nil {
		return step3Outcome{}, err
	}
	tm.Instrument(p.Obs, "atpg.seq")
	done := timeATPG(rec, "atpg.seq", s.Fault)
	res, err := tm.GenerateCtx(ctx, s.Fault, finalBacktracks)
	if err != nil {
		return step3Outcome{}, err
	}
	done(res.Status, res.Backtracks)
	if res.Status == atpg.Found {
		hit, err := confirm(ctx, d, s.Fault, res.Sequence, p)
		if err != nil {
			return step3Outcome{}, err
		}
		if hit {
			out.status = step3Detected
		} else {
			out.miss = true
		}
	}
	// Redundant here means only "no test within the bounded enhanced
	// model" — not a proof; the fault stays undetected.
	return out, nil
}

// randomSequence builds a scan-mode input sequence with random values on
// every unpinned input (scan-ins included), deterministic in seed.
func randomSequence(d *scan.Design, cycles int, seed uint64) faultsim.Sequence {
	rng := seed
	next := func() logic.V {
		rng = rng*6364136223846793005 + 1442695040888963407
		return logic.V((rng >> 33) & 1)
	}
	seq := make(faultsim.Sequence, cycles)
	for t := range seq {
		pi := d.BaselinePI()
		for i, in := range d.C.Inputs {
			if _, pinned := d.Assignments[in]; !pinned {
				pi[i] = next()
			}
		}
		seq[t] = pi
	}
	return seq
}
