package core

import (
	"context"

	"repro/internal/atpg"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scan"
	"repro/internal/sim"
)

// combDropper fault-simulates single vectors on the scan-mode
// combinational model (63 faults per packed pass) to predict which hard
// faults a vector covers. Predictions only skip ATPG work: the real
// sequential fault simulation still decides detection.
//
// The 63-fault batches of one drop call are sharded across workers;
// covered is an atomic bit set shared by all of them (each fault lives
// in exactly one batch, so the only concurrency is set-versus-read
// across different faults, which the bit set makes safe).
type combDropper struct {
	d       *scan.Design
	cm      *atpg.CombModel
	hard    []Screened
	covered *par.BitSet
	// coveredAt records the index of the vector predicted to cover each
	// fault (-1 when none): sorting faults by it lets the sequential
	// fault simulator finish each 63-lane batch early.
	coveredAt []int
	nVectors  int
	workers   int
	prog      *sim.Program
	evals     []*sim.CompiledComb // one per worker, lazily created
	injbuf    [][]sim.LaneInject
	base      []logic.V // per model input: vector-independent fill
	pending   []int     // reused scratch: still-uncovered fault indices
	inW       []logic.Word
	predCtr   *obs.Counter // step2.drop.predicted (nil-safe)
}

func newCombDropper(d *scan.Design, cm *atpg.CombModel, hard []Screened, workers int, cache *engine.Cache, col *obs.Collector) *combDropper {
	workers = par.Workers(workers)
	cd := &combDropper{
		d:         d,
		cm:        cm,
		hard:      hard,
		covered:   par.NewBitSet(len(hard)),
		coveredAt: make([]int, len(hard)),
		workers:   workers,
		prog:      engine.Resolve(cache).ForObs(cm.C, col).Program(col),
		predCtr:   col.Counter("step2.drop.predicted"),
		evals:     make([]*sim.CompiledComb, workers),
		injbuf:    make([][]sim.LaneInject, workers),
		base:      make([]logic.V, len(cm.C.Inputs)),
		inW:       make([]logic.Word, len(cm.C.Inputs)),
	}
	for i := range cd.coveredAt {
		cd.coveredAt[i] = -1
	}
	for i, in := range cm.C.Inputs {
		if v, ok := d.Assignments[in]; ok {
			cd.base[i] = v
		} else {
			// Free mission inputs, scan-ins and flip-flop pseudo-inputs
			// all load zero when the vector leaves them unassigned,
			// matching ConvertVectors' don't-care fill.
			cd.base[i] = logic.Zero
		}
	}
	return cd
}

// drop marks every still-uncovered fault that vector v detects on the
// combinational model.
func (cd *combDropper) drop(v scan.Vector) {
	vecIdx := cd.nVectors
	cd.nVectors++
	c := cd.cm.C
	cd.pending = cd.pending[:0]
	for i := range cd.hard {
		if !cd.covered.Get(i) {
			cd.pending = append(cd.pending, i)
		}
	}
	pending := cd.pending
	// Input words for this vector, shared read-only by every worker.
	for i, in := range c.Inputs {
		val := cd.base[i]
		if vv, ok := v.FFs[in]; ok && vv.Known() {
			val = vv
		} else if vv, ok := v.PIs[in]; ok && vv.Known() {
			val = vv
		}
		cd.inW[i] = logic.WordAll(val)
	}

	batches := par.Chunks(len(pending), 63)
	workers := cd.workers
	if workers > len(batches) {
		workers = len(batches)
	}
	par.DoCtx(context.TODO(), workers, len(batches), func(worker, bi int) {
		eval := cd.evals[worker]
		if eval == nil {
			eval = sim.NewCompiledCombFrom(cd.prog)
			cd.evals[worker] = eval
			cd.injbuf[worker] = make([]sim.LaneInject, 0, 63)
		}
		base, n := batches[bi].Lo, batches[bi].Len()
		injs := cd.injbuf[worker][:0]
		for k := 0; k < n; k++ {
			f := cd.cm.MapFault(cd.hard[pending[base+k]].Fault)
			injs = append(injs, sim.LaneInject{Inject: f.Inject(), Lane: uint(k + 1)})
		}
		cd.injbuf[worker] = injs
		eval.SetInjections(injs)
		eval.ClearX()
		vals := eval.Words()
		for i, in := range c.Inputs {
			vals[in] = cd.inW[i]
		}
		eval.Eval()
		laneMask := (uint64(1)<<uint(n+1) - 1) &^ 1
		var det uint64
		for _, o := range c.Outputs {
			w := vals[o]
			switch w.Get(0) {
			case logic.One:
				det |= w.Zeros & laneMask
			case logic.Zero:
				det |= w.Ones & laneMask
			}
		}
		newly := int64(0)
		for k := 0; k < n; k++ {
			if det&(uint64(1)<<uint(k+1)) != 0 {
				if cd.covered.Set(pending[base+k]) {
					newly++
				}
				cd.coveredAt[pending[base+k]] = vecIdx
			}
		}
		cd.predCtr.Add(newly)
	})
}
