// Package fsct is the public facade of the Functional Scan Chain Testing
// library — a Go reproduction of Chang, Lee, Cheng and Marek-Sadowska,
// "Functional Scan Chain Testing", DATE 1998.
//
// The library covers the whole stack the paper depends on:
//
//   - gate-level netlists and the ISCAS'89 .bench format,
//   - a deterministic generator for the paper's benchmark size profiles,
//   - three-valued (0/1/X) logic simulation, scalar and 64-way packed,
//   - the single stuck-at fault model with equivalence collapsing,
//   - parallel-fault sequential fault simulation,
//   - PODEM combinational ATPG and time-frame-expansion sequential ATPG,
//   - test point insertion (TPI) establishing functional scan paths,
//   - and the paper's three-step scan-chain testing methodology.
//
// Typical use:
//
//	c := fsct.GenerateCircuit(fsct.MustProfile("s5378").Scale(0.1), 1)
//	d, _ := fsct.InsertScan(c, fsct.ScanOptions{NumChains: 2})
//	rep, _ := fsct.RunFlowCtx(context.Background(), d, fsct.FlowParams{})
//	fmt.Println(fsct.FormatReport(rep))
package fsct

import (
	"context"
	"encoding/json"
	"io"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/task"
	"repro/internal/tpi"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while giving library users one import.
type (
	// Circuit is a gate-level sequential netlist.
	Circuit = netlist.Circuit
	// Profile describes a benchmark size target.
	Profile = gen.Profile
	// Design is a circuit with functional scan inserted.
	Design = scan.Design
	// ScanOptions tunes test point insertion and chain construction.
	ScanOptions = tpi.Options
	// FlowParams tunes the three-step testing flow.
	FlowParams = core.Params
	// Report is the per-circuit outcome (Tables 1-3, Figure 5 data).
	Report = core.Report
	// StepStats aggregates one flow step's outcome within a Report.
	StepStats = core.StepStats
	// Fault is a single stuck-at fault.
	Fault = fault.Fault
	// Value is a three-valued logic value (V0, V1, VX).
	Value = logic.V
	// SignalID indexes a signal within a circuit.
	SignalID = netlist.SignalID
	// Screened is a fault together with its scan-chain screening verdict.
	Screened = core.Screened
	// Category classifies a fault's relation to the scan chain.
	Category = core.Category
	// Sequence is a per-cycle primary-input test sequence.
	Sequence = faultsim.Sequence
	// SimResult is the outcome of fault-simulating a sequence.
	SimResult = faultsim.Result
	// EngineCache memoizes per-circuit derived artifacts (compiled
	// programs, collapsed fault lists, combinational ATPG models and
	// SCOAP tables) across flow phases and library calls.
	EngineCache = engine.Cache
)

// Logic constants.
const (
	V0 = logic.Zero
	V1 = logic.One
	VX = logic.X
)

// Screening categories (paper Section 3): CatUnaffecting faults do not
// touch the chain, CatEasy (category 1) are caught by the alternating
// sequence, CatHard (category 2) need the paper's flow.
const (
	CatUnaffecting = core.Cat3
	CatEasy        = core.Cat1
	CatHard        = core.Cat2
)

// Suite returns the twelve ISCAS'89 size profiles of the paper's test
// suite.
func Suite() []Profile { return gen.Suite() }

// ProfileByName returns the named suite profile, or an error naming the
// valid choices when no profile matches.
func ProfileByName(name string) (Profile, error) { return gen.ProfileByName(name) }

// MustProfile returns the named suite profile or panics. Command-line
// tools (and anything else fed user input) should prefer ProfileByName
// and report the error.
func MustProfile(name string) Profile {
	p, err := gen.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// GenerateCircuit builds the deterministic synthetic circuit for a
// profile.
func GenerateCircuit(p Profile, seed int64) *Circuit { return gen.Generate(p, seed) }

// S27 returns the embedded real ISCAS'89 s27 benchmark.
func S27() *Circuit { return bench.MustS27() }

// ParseBench reads a circuit in ISCAS'89 .bench format.
func ParseBench(r io.Reader, name string) (*Circuit, error) { return bench.Parse(r, name) }

// WriteBench writes a circuit in ISCAS'89 .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// InsertScan runs test point insertion and chain construction.
func InsertScan(c *Circuit, opts ScanOptions) (*Design, error) { return tpi.Insert(c, opts) }

// OptimizeScanOrdering tries several chain orderings (the freedom the
// paper leaves to the designer) and returns the design with the least
// inserted-gate overhead, the winning seed, and each candidate's cost.
func OptimizeScanOrdering(c *Circuit, opts ScanOptions, seeds []int64) (*Design, int64, []int, error) {
	return tpi.OptimizeOrdering(c, opts, seeds)
}

// SelectPartialScan chooses a feedback-breaking flip-flop subset for
// partial scan (in the spirit of the paper's reference [3], Cheng &
// Agrawal), topped up to at least minFraction of all flip-flops. Feed
// the result to ScanOptions.ScanFFs.
func SelectPartialScan(c *Circuit, minFraction float64) []netlist.SignalID {
	return tpi.SelectPartialScan(c, minFraction)
}

// RunFlowCtx executes the paper's three-step methodology on a scan
// design. When ctx fires the flow stops at the next fault-batch or
// ATPG-backtrack boundary and returns the partially filled report
// together with an error wrapping ctx.Err(). Use the report's populated
// phases; treat the rest as not run.
func RunFlowCtx(ctx context.Context, d *Design, p FlowParams) (*Report, error) {
	return core.RunCtx(ctx, d, p)
}

// CollapsedFaults returns the equivalence-collapsed stuck-at fault list
// of a circuit (the paper's "#faults").
func CollapsedFaults(c *Circuit) []Fault { return fault.Collapsed(c) }

// ScreenOptions tunes the screening engine (worker count, artifact
// cache, metrics collector). The zero value selects GOMAXPROCS workers
// and the shared artifact cache.
type ScreenOptions = core.ScreenOptions

// ScreenFaultsCtx runs the forward-implication screening (paper
// Section 3) of the given faults against a scan design. When ctx fires,
// faults whose batch never ran keep the unaffecting default in the
// partial result.
func ScreenFaultsCtx(ctx context.Context, d *Design, faults []Fault, opts ScreenOptions) ([]Screened, error) {
	return core.ScreenCtx(ctx, d, faults, opts)
}

// SimOptions tunes a fault-simulation run (initial state, early stop,
// worker count, artifact cache, metrics collector). The zero value
// selects GOMAXPROCS workers and lets the engine pick the evaluator.
type SimOptions = faultsim.Options

// SimulateFaultsCtx fault-simulates a test sequence against every fault
// (63 faulty machines per packed pass) and reports first-detection
// cycles. When ctx fires, detections recorded before the cancel are
// valid in the partial result and the remaining faults stay undetected.
func SimulateFaultsCtx(ctx context.Context, c *Circuit, seq Sequence, faults []Fault, opts SimOptions) (*SimResult, error) {
	return faultsim.RunCtx(ctx, c, seq, faults, opts)
}

// WriteSequence / ReadSequence persist test sequences in the simple
// text format of internal/faultsim (header naming inputs, one 0/1/X
// line per cycle).
func WriteSequence(w io.Writer, c *Circuit, seq Sequence) error {
	return faultsim.WriteSequence(w, c, seq)
}

// ReadSequence parses a sequence file for circuit c.
func ReadSequence(r io.Reader, c *Circuit) (Sequence, error) {
	return faultsim.ReadSequence(r, c)
}

// WriteVerilog exports the circuit as a structural gate-level Verilog
// module.
func WriteVerilog(w io.Writer, c *Circuit) error { return bench.WriteVerilog(w, c) }

// Dictionary is a response-signature fault dictionary for scan-chain
// diagnosis.
type Dictionary = diagnose.Dictionary

// BuildDictionaryCtx simulates the candidate faults against the default
// diagnostic sequences and indexes their response signatures, with the
// 63-fault simulation batches sharded across workers goroutines (0 =
// GOMAXPROCS); the dictionary is identical at any width. The build
// runs under a "dictionary" phase of col, its worker pool reports
// utilization as the "diagnose" pool, and with a journal attached both
// emit flight-recorder events; col may be nil. Discard the dictionary
// when the error is non-nil.
func BuildDictionaryCtx(ctx context.Context, d *Design, faults []Fault, seed uint64, workers int, col *Collector) (*Dictionary, error) {
	sp := col.Phase("dictionary")
	defer sp.End()
	return diagnose.BuildCtx(ctx, d, faults, diagnose.DefaultSequences(d, seed), workers, nil, col)
}

// ChainNets returns every on-path net of the design's chains.
func ChainNets(d *Design) []SignalID { return core.ChainNets(d) }

// ChainTransitionCoverageCtx measures how the alternating shift test
// doubles as a two-pattern (transition fault) test for the chain links:
// detections over slow-to-rise/slow-to-fall faults on every on-path
// net, with the fault axis sharded across workers goroutines (0 =
// GOMAXPROCS, 1 = serial). When ctx fires, unsimulated faults count as
// undetected in the partial result.
func ChainTransitionCoverageCtx(ctx context.Context, d *Design, extraCycles, workers int) (detected, total int, err error) {
	detected, total, _, err = core.ChainTransitionCoverageCtx(ctx, d, extraCycles, workers)
	return detected, total, err
}

// WriteReportJSON serializes a report (durations in nanoseconds).
func WriteReportJSON(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Testability carries SCOAP controllability/observability measures.
type Testability = atpg.Testability

// AnalyzeTestability computes SCOAP measures for a circuit's
// combinational model under the given pinned inputs (nil for none).
// The combinational model and ATPG model come from the shared artifact
// cache, so analyzing a circuit the flow has already processed reuses
// its derived structures.
func AnalyzeTestability(c *Circuit, pinned map[SignalID]Value) (*Testability, *Circuit, error) {
	arts := engine.Default().For(c)
	cm, err := arts.CombModel()
	if err != nil {
		return nil, nil, err
	}
	m, _, err := arts.CombSearch(pinned)
	if err != nil {
		return nil, nil, err
	}
	return atpg.Analyze(m), cm.C, nil
}

// DefaultChains picks the chain count the experiments use: enough chains
// to keep the longest chain near 350 flip-flops, as the paper keeps
// chain length "reasonable" on the larger circuits. (The policy lives
// in the task layer so CLI and daemon defaults cannot drift.)
func DefaultChains(ffs int) int { return task.DefaultChains(ffs) }

// Task-layer re-exports: the canonical serializable Spec -> Run ->
// Result pipeline every batch CLI and the fsctd daemon run on. See internal/task for the contract; library users get the same
// orchestration (and therefore byte-identical reports) through these
// aliases.
type (
	// TaskSpec is a serializable job description (kind, circuit
	// source, run options).
	TaskSpec = task.Spec
	// TaskResult is a job outcome (report text, ledger extras,
	// per-kind data).
	TaskResult = task.Result
	// TaskDefaults is the per-kind option-defaults table.
	TaskDefaults = task.Defaults
)

// Job kinds accepted by TaskSpec.Kind.
const (
	TaskFlow     = task.KindFlow
	TaskScreen   = task.KindScreen
	TaskATPG     = task.KindATPG
	TaskFaultSim = task.KindFaultSim
	TaskDiagnose = task.KindDiagnose
)

// TaskDefaultsFor returns the option defaults for a job kind — the
// single table the CLI flags and the daemon's spec normalization share.
func TaskDefaultsFor(kind string) TaskDefaults { return task.DefaultsFor(kind) }

// RunTask executes a spec end to end in this process — the path behind
// every batch CLI and daemon job.
func RunTask(ctx context.Context, sp TaskSpec, cache *EngineCache, col *Collector) (*TaskResult, error) {
	return task.Run(ctx, sp, cache, col)
}
