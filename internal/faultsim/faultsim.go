// Package faultsim runs fault simulation of test sequences: a serial
// reference simulator, a 63-fault parallel machine simulator built on
// the compiled 64-lane evaluator, and a hybrid strategy that runs each
// fault on a per-fault delta simulator against a shared fault-free
// baseline and demotes broadly-diverging faults back to the compiled
// sweep. Detection means a primary output carries a definite value in
// the fault-free machine and the opposite definite value in the faulty
// machine at the same cycle; an X never detects. Every strategy
// produces identical results at any worker count.
//
// Combinational fault simulation falls out as the special case of a
// circuit with no flip-flops and one-cycle sequences.
package faultsim

import (
	"context"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// Sequence is a test sequence: one primary-input assignment per cycle,
// each with one value per circuit input (in c.Inputs order).
type Sequence [][]logic.V

// hybridUnit is the number of faults one hybrid work unit carries. Each
// unit pays one fault-free baseline re-simulation, amortized across its
// faults, so larger units waste less baseline work — but units are also
// the parallel grain, so they must stay numerous enough to spread
// across workers.
const hybridUnit = 256

// Options configures a fault-simulation run.
type Options struct {
	// InitState is the initial flip-flop state (per c.FFs entry). Nil
	// means all-X (power-on).
	InitState []logic.V
	// StopWhenAllDetected ends each batch early once every fault in it
	// has been detected.
	StopWhenAllDetected bool
	// Workers is the number of goroutines sharding the fault axis
	// (each owns a private packed simulator and processes whole
	// 63-fault batches). 0 selects runtime.GOMAXPROCS; 1 forces the
	// serial path. Results are identical at any width.
	Workers int
	// Eval selects the simulation backend. engine.Auto (the zero value)
	// picks per run: hybrid for full-width passes on larger sequential
	// circuits, and the compiled evaluator otherwise.
	Eval engine.Backend
	// ConeThreshold is the hybrid strategy's per-cycle gate-evaluation
	// budget: faults whose divergence exceeds it in any cycle are
	// demoted to the compiled sweep. 0 selects the circuit-scaled
	// engine.ConeThresholdFor default. Ignored by the compiled
	// backend. The demotion decision depends only on the fault, the
	// sequence and the initial state, so results stay identical at any
	// worker count.
	ConeThreshold int
	// Cache supplies the shared circuit-artifact cache the compiled
	// program is drawn from. Nil selects engine.Default().
	Cache *engine.Cache
	// Obs, when non-nil, receives run metrics: faultsim.* counters
	// (runs by evaluator kind, batches, executed cycles, detections,
	// early exits, hybrid fast-path occupancy) and per-worker
	// utilization under the "faultsim" (sweep) and "faultsim.delta"
	// (hybrid fast path) pools. A nil collector costs one pointer test
	// per batch.
	Obs *obs.Collector
}

// Result reports, for each fault (by index into the input fault slice),
// the first cycle at which it was detected, or -1.
type Result struct {
	DetectedAt []int
}

// NumDetected counts the detected faults.
func (r *Result) NumDetected() int {
	n := 0
	for _, d := range r.DetectedAt {
		if d >= 0 {
			n++
		}
	}
	return n
}

// Undetected returns the indices of undetected faults.
func (r *Result) Undetected() []int {
	u := make([]int, 0, len(r.DetectedAt)-r.NumDetected())
	for i, d := range r.DetectedAt {
		if d < 0 {
			u = append(u, i)
		}
	}
	return u
}

// Profile returns the cumulative number of detected faults after each
// cycle boundary in bounds (ascending cycle counts), the Figure-5 curve.
func (r *Result) Profile(bounds []int) []int {
	out := make([]int, len(bounds))
	for i, b := range bounds {
		n := 0
		for _, d := range r.DetectedAt {
			if d >= 0 && d < b {
				n++
			}
		}
		out[i] = n
	}
	return out
}

// RunCtx simulates seq against every fault using the packed simulator,
// 63 faulty machines at a time with the fault-free machine in lane 0.
// Batches are sharded across opts.Workers goroutines; each worker owns
// a private simulator and writes detections only into its batch's slice
// range, so the result is identical at any worker count.
//
// Workers stop claiming fault batches once ctx is cancelled (an
// in-flight batch finishes — at most one sequence application per
// worker runs after the cancel), all workers are joined, and the
// context error is returned alongside the partial result. Detections
// recorded before the cancel are valid; the remaining faults simply
// stay undetected in the result. A nil context behaves like
// context.Background.
func RunCtx(ctx context.Context, c *netlist.Circuit, seq Sequence, faults []fault.Fault, opts Options) (*Result, error) {
	res := &Result{DetectedAt: make([]int, len(faults))}
	for i := range res.DetectedAt {
		res.DetectedAt[i] = -1
	}
	if len(seq) == 0 || len(faults) == 0 {
		if ctx != nil {
			return res, ctx.Err()
		}
		return res, nil
	}

	seqW := broadcastSeq(c, seq)

	col := opts.Obs
	lanes := len(faults)
	if lanes > 63 {
		lanes = 63
	}
	backend := opts.Eval.ResolveSeq(c, lanes)
	if col.Enabled() {
		col.Counter("faultsim.runs").Inc()
		col.Counter("faultsim.eval." + backend.String()).Inc()
		col.Counter("faultsim.faults").Add(int64(len(faults)))
	}
	arts := engine.Resolve(opts.Cache).ForObs(c, col)

	var err error
	if backend == engine.Hybrid {
		err = runHybrid(ctx, seqW, faults, opts, res, col, arts)
	} else {
		err = runSweep(ctx, seqW, faults, nil, opts, res, col, arts.Program(col))
	}
	if col.Enabled() {
		col.Counter("faultsim.detected").Add(int64(res.NumDetected()))
	}
	return res, err
}

// broadcastSeq expands the scalar stimulus to packed all-lanes words
// once, in a single backing allocation; every worker reads it.
func broadcastSeq(c *netlist.Circuit, seq Sequence) [][]logic.Word {
	stride := len(c.Inputs)
	flat := make([]logic.Word, len(seq)*stride)
	seqW := make([][]logic.Word, len(seq))
	for cyc, pi := range seq {
		w := flat[cyc*stride : (cyc+1)*stride : (cyc+1)*stride]
		for i := range w {
			w[i] = logic.WordAll(pi[i])
		}
		seqW[cyc] = w
	}
	return seqW
}

// runSweep is the compiled 63-faults-per-batch simulation shared by the
// compiled backend and the hybrid strategy's demotion pass. idxs selects
// the faults to simulate (indices into faults, ascending); nil means
// all of them. Detections are recorded under the fault's original
// index, and each batch writes only its own result slots, so the
// outcome is identical at any worker count.
func runSweep(ctx context.Context, seqW [][]logic.Word, faults []fault.Fault, idxs []int, opts Options, res *Result, col *obs.Collector, prog *sim.Program) error {
	total := len(idxs)
	if idxs == nil {
		total = len(faults)
	}
	if total == 0 {
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	batches := par.Chunks(total, 63)
	workers := par.Workers(opts.Workers)
	if workers > len(batches) {
		workers = len(batches)
	}
	if col.Enabled() {
		col.Counter("faultsim.batches").Add(int64(len(batches)))
	}
	cycleCtr := col.Counter("faultsim.cycles")
	earlyCtr := col.Counter("faultsim.early_exits")
	rec := col.Journal()

	type wstate struct {
		ps   *sim.CompiledSeq
		poW  []logic.Word
		injs []sim.LaneInject
		fidx []int // absolute fault index per lane-1-based batch slot
	}
	states := par.NewPerWorker(workers, func() *wstate {
		return &wstate{
			ps:   sim.NewCompiledSeqFrom(prog),
			injs: make([]sim.LaneInject, 0, 63),
			fidx: make([]int, 0, 63),
		}
	})
	body := func(worker, bi int) {
		st := states.Get(worker)
		base, n := batches[bi].Lo, batches[bi].Len()
		st.injs = st.injs[:0]
		st.fidx = st.fidx[:0]
		for k := 0; k < n; k++ {
			fi := base + k
			if idxs != nil {
				fi = idxs[base+k]
			}
			st.fidx = append(st.fidx, fi)
			st.injs = append(st.injs, sim.LaneInject{Inject: faults[fi].Inject(), Lane: uint(k + 1)})
		}
		ps := st.ps
		ps.SetInjections(st.injs)
		ps.ResetX()
		if opts.InitState != nil {
			for i, v := range opts.InitState {
				ps.SetStateWord(i, logic.WordAll(v))
			}
		}

		allMask := (uint64(1)<<uint(n+1) - 1) &^ 1 // lanes 1..n
		detected := uint64(0)
		ran := 0
		for cyc, piW := range seqW {
			st.poW = ps.Cycle(piW, st.poW)
			ran++
			for _, w := range st.poW {
				switch w.Get(0) {
				case logic.One:
					detected |= noteDetections(res, rec, faults, worker, st.fidx, w.Zeros&allMask&^detected, cyc)
				case logic.Zero:
					detected |= noteDetections(res, rec, faults, worker, st.fidx, w.Ones&allMask&^detected, cyc)
				}
			}
			if opts.StopWhenAllDetected && detected == allMask {
				earlyCtr.Inc()
				break
			}
		}
		cycleCtr.Add(int64(ran))
	}
	return par.DoPoolCtx(ctx, workers, len(batches), "faultsim", col, body)
}

// runHybrid is the hybrid strategy: faults run one at a time on a
// per-worker delta simulator (sim.DeltaSeq) against a shared compiled
// baseline, in units of hybridUnit faults (one baseline re-simulation
// per unit). Faults whose per-cycle divergence exceeds the cone
// threshold are demoted — their verdicts come exclusively from a second
// compiled 63-lane sweep over just those faults. Demotion depends only
// on (fault, sequence, initial state), and both passes write only their
// own result slots, so the outcome is byte-identical to the compiled
// backend at any worker count or unit size.
func runHybrid(ctx context.Context, seqW [][]logic.Word, faults []fault.Fault, opts Options, res *Result, col *obs.Collector, arts *engine.Artifacts) error {
	cones := arts.Cones(col)
	prog := arts.Program(col)
	thr := opts.ConeThreshold
	if thr <= 0 {
		thr = engine.ConeThresholdFor(prog.C)
	}

	units := par.Chunks(len(faults), hybridUnit)
	workers := par.Workers(opts.Workers)
	if workers > len(units) {
		workers = len(units)
	}
	cycleCtr := col.Counter("faultsim.cycles")
	earlyCtr := col.Counter("faultsim.early_exits")
	rec := col.Journal()

	// Per-fault demotion flags: each unit writes only its own slots, so
	// concurrent workers never contend.
	demoted := make([]bool, len(faults))

	type hstate struct {
		d    *sim.DeltaSeq
		injs []sim.Inject
		det  []int
		over []bool
	}
	states := par.NewPerWorker(workers, func() *hstate {
		return &hstate{d: sim.NewDeltaSeq(prog)}
	})
	body := func(worker, ui int) {
		st := states.Get(worker)
		u := units[ui]
		n := u.Len()
		st.injs = st.injs[:0]
		for i := u.Lo; i < u.Hi; i++ {
			st.injs = append(st.injs, faults[i].Inject())
		}
		if cap(st.det) < n {
			st.det = make([]int, n)
			st.over = make([]bool, n)
		}
		det, over := st.det[:n], st.over[:n]
		ran := st.d.Run(st.injs, seqW, opts.InitState, thr, det, over)
		cycleCtr.Add(int64(ran))
		if ran < len(seqW) {
			earlyCtr.Inc()
		}
		for k := 0; k < n; k++ {
			fi := u.Lo + k
			if over[k] {
				demoted[fi] = true
				continue
			}
			if det[k] < 0 {
				continue
			}
			res.DetectedAt[fi] = det[k]
			if rec.Enabled() {
				f := faults[fi]
				ev := journal.Detect(journal.NewFaultKey(int(f.Signal), int(f.Gate), f.Pin, uint8(f.Stuck)), det[k])
				ev.Worker = int32(worker)
				rec.Emit(ev)
			}
		}
	}
	err := par.DoPoolCtx(ctx, workers, len(units), "faultsim.delta", col, body)

	swept := make([]int, 0, len(faults)/8)
	for fi, d := range demoted {
		if d {
			swept = append(swept, fi)
		}
	}
	if col.Enabled() {
		col.Counter("faultsim.hybrid.cone_faults").Add(int64(len(faults) - len(swept)))
		col.Counter("faultsim.hybrid.swept_faults").Add(int64(len(swept)))
		small := 0
		for i := range faults {
			if s := cones.Size(sim.ConeRoot(faults[i].Inject())); s >= 0 && s <= thr {
				small++
			}
		}
		col.Counter("faultsim.hybrid.static_small").Add(int64(small))
	}
	if err != nil {
		// Cancelled mid-fast-path: unclaimed units never set demotion
		// flags, so their faults simply stay undetected, matching the
		// partial-result contract.
		return err
	}
	return runSweep(ctx, seqW, faults, swept, opts, res, col, prog)
}

// noteDetections records the first-detection cycle for every fault whose
// lane bit is set in newly (fidx maps batch slots to absolute fault
// indices), mirroring each into the flight recorder (rec nil when no
// journal is attached — the common case costs one nil test per
// newly-detected fault).
func noteDetections(res *Result, rec *journal.Recorder, faults []fault.Fault, worker int, fidx []int, newly uint64, cyc int) uint64 {
	if newly == 0 {
		return 0
	}
	for k, fi := range fidx {
		if newly&(uint64(1)<<uint(k+1)) != 0 {
			res.DetectedAt[fi] = cyc
			if rec.Enabled() {
				f := faults[fi]
				ev := journal.Detect(journal.NewFaultKey(int(f.Signal), int(f.Gate), f.Pin, uint8(f.Stuck)), cyc)
				ev.Worker = int32(worker)
				rec.Emit(ev)
			}
		}
	}
	return newly
}

// RunSerial is the reference implementation: one scalar simulation per
// fault. It must agree with RunCtx; the parallel/serial equivalence is a
// property test and an ablation benchmark.
func RunSerial(c *netlist.Circuit, seq Sequence, faults []fault.Fault, opts Options) *Result {
	res := &Result{DetectedAt: make([]int, len(faults))}
	good := goodTrace(c, seq, opts)
	for fi, f := range faults {
		res.DetectedAt[fi] = -1
		inj := f.Inject()
		s := sim.NewSeq(c)
		if opts.InitState != nil {
			s.SetState(opts.InitState)
		}
		var po []logic.V
	cycles:
		for cyc, pi := range seq {
			po = s.Cycle(pi, &inj, po)
			for o, v := range po {
				g := good[cyc][o]
				if g.Known() && v.Known() && g != v {
					res.DetectedAt[fi] = cyc
					break cycles
				}
			}
		}
	}
	return res
}

func goodTrace(c *netlist.Circuit, seq Sequence, opts Options) [][]logic.V {
	s := sim.NewSeq(c)
	if opts.InitState != nil {
		s.SetState(opts.InitState)
	}
	out := make([][]logic.V, len(seq))
	for cyc, pi := range seq {
		po := s.Cycle(pi, nil, nil)
		out[cyc] = append([]logic.V(nil), po...)
	}
	return out
}
