// Package task is the canonical run layer shared by the batch CLIs and
// the fsctd daemon: one versioned, JSON-serializable job description
// (Spec), a deterministic shard planner (Plan -> []Unit), a unit runner
// (Execute -> *Partial) and a merge step (Merge -> *Result) whose
// output is byte-identical to a single-node run at any unit count.
//
// The pipeline is
//
//	Spec --Plan--> []Unit --Execute--> []*Partial --Merge--> *Result
//
// and Run composes the four for the common single-process case. Specs
// and Units marshal to JSON, so a future coordinator can ship Units to
// worker processes and reassemble their Partials: every Unit owns a
// contiguous, 63-fault-batch-aligned slice of the fault axis (the same
// batch geometry internal/par shards within a process), and each
// per-fault outcome is written only into the slot its index owns, so
// the merged report does not depend on how the axis was partitioned.
//
// The batch CLIs build a Spec from flags (cmd/internal/specflags) and
// call Run; internal/serve validates a submitted Spec and calls Run
// under its queue. Both therefore share one orchestration path, which
// is what keeps daemon reports byte-identical to CLI reports.
package task

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/tpi"
	"repro/internal/trace"
)

// SpecVersion is the schema version this build writes and accepts.
// Normalize stamps it into specs that omit it.
const SpecVersion = 1

// Job kinds. Each maps onto the run path the matching batch CLI uses,
// so a job's text report is byte-identical to the CLI's output for the
// same spec.
const (
	// KindFlow runs the paper's three-step flow (cmd/fsctest).
	KindFlow = "flow"
	// KindScreen runs scan-chain fault screening alone.
	KindScreen = "screen"
	// KindATPG runs combinational PODEM over the scan-mode model.
	KindATPG = "atpg"
	// KindFaultSim fault-simulates a stimulus sequence (cmd/faultsim).
	KindFaultSim = "faultsim"
	// KindDiagnose builds the fault dictionary and reports resolution
	// statistics (cmd/diagnose -stats).
	KindDiagnose = "diagnose"
)

// Kinds returns every job kind in canonical order.
func Kinds() []string {
	return []string{KindFlow, KindScreen, KindATPG, KindFaultSim, KindDiagnose}
}

// Spec is one job description: what to run and on which circuit. Zero
// optional fields select the defaults in DefaultsFor, so the same JSON
// object means the same run to every consumer (CLI, daemon, future
// coordinator workers).
type Spec struct {
	// Version is the spec schema version (0 = current, stamped by
	// Normalize).
	Version int `json:"v,omitempty"`
	// Kind selects the job kind (flow, screen, atpg, faultsim,
	// diagnose).
	Kind string `json:"kind"`
	// Circuit names the suite profile to generate ("s9234", ...) or
	// "s27" for the embedded real benchmark. With Bench set it is only
	// the display name.
	Circuit string `json:"circuit"`
	// Bench, when non-empty, is an inline ISCAS'89 .bench netlist that
	// replaces profile generation (the CLIs' -in flag, made portable:
	// the spec stays self-contained on the wire).
	Bench string `json:"bench,omitempty"`
	// Scale shrinks the profile (0 or 1 = full size).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives generation, scan insertion and stimulus (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Chains is the scan-chain count (0 = DefaultChains).
	Chains int `json:"chains,omitempty"`
	// Workers shards each phase's fault axis within the process
	// (0 = GOMAXPROCS). Results are identical at any width.
	Workers int `json:"workers,omitempty"`
	// Eval selects the simulation backend (default "auto").
	Eval string `json:"eval,omitempty"`
	// Cycles is the random-sequence length for faultsim jobs
	// (default 500). Ignored when Sequence is set.
	Cycles int `json:"cycles,omitempty"`
	// Sequence, when non-empty, is an inline stimulus in the
	// internal/faultsim text format, replacing the generated random
	// sequence (the faultsim CLI's -seq flag).
	Sequence string `json:"sequence,omitempty"`
	// Uncollapsed selects the full fault list instead of the
	// equivalence-collapsed one (faultsim only).
	Uncollapsed bool `json:"uncollapsed,omitempty"`
	// ConeThreshold overrides the hybrid evaluator's per-cycle event
	// budget (0 = circuit-scaled default). Demotion depends only on the
	// fault, sequence and initial state, so it is shard-invariant.
	ConeThreshold int `json:"cone_threshold,omitempty"`
	// Priority orders the daemon queue: higher pops first (default 0;
	// FIFO within a priority). It does not affect the run itself.
	Priority int `json:"priority,omitempty"`
	// Units asks Plan to shard the job into at most this many
	// work-units (0 or 1 = one unit; flow always plans one). The merged
	// result is byte-identical at any unit count — extra units buy
	// per-unit telemetry granularity (progress, heartbeats, stall
	// flags) and the re-dispatch grain a coordinator shards by, not a
	// different answer.
	Units int `json:"units,omitempty"`
	// TraceParent, when non-empty, is the W3C traceparent of the span
	// that owns this job — the submitting client's span, or the daemon
	// job span once fsctd re-stamps an accepted spec. The executor's
	// unit spans parent to it, so a trace assembled anywhere (CLI
	// export, daemon endpoint, future coordinator workers) joins into
	// one tree. Normalize validates and canonicalizes it; it does not
	// affect the run's result.
	TraceParent string `json:"traceparent,omitempty"`
}

// TraceContext returns the spec's parsed trace context and whether
// one is set. A spec that never passed Normalize may return false for
// a malformed header; normalized specs parse cleanly.
func (sp Spec) TraceContext() (trace.Context, bool) {
	if sp.TraceParent == "" {
		return trace.Context{}, false
	}
	tc, err := trace.Parse(sp.TraceParent)
	if err != nil {
		return trace.Context{}, false
	}
	return tc, true
}

// Defaults is the single source of truth for per-kind option defaults:
// the daemon's Normalize fills missing Spec fields from it and the
// CLIs register their flag defaults from it, so the two surfaces
// cannot drift (cmd/internal/specflags pins that with a test).
type Defaults struct {
	// Scale is the CLI flag default only: an omitted daemon Spec.Scale
	// means full size, while the analysis CLIs (faultsim, diagnose)
	// default their -scale flag to a fraction for interactive latency.
	// Normalize never fills Scale.
	Scale float64
	// Seed is the generation/insertion/stimulus seed default.
	Seed int64
	// Chains is the scan-chain count default (0 = DefaultChains at
	// insertion time).
	Chains int
	// Workers is the in-process fault-axis worker default
	// (0 = GOMAXPROCS).
	Workers int
	// Eval is the evaluator backend default.
	Eval string
	// Cycles is the random-stimulus length default.
	Cycles int
	// ConeThreshold is the hybrid event-budget default (0 =
	// circuit-scaled).
	ConeThreshold int
	// MaxWorkers is the largest Workers value Normalize accepts. Every
	// worker may hold its own scratch (evaluators, PODEM engines), so
	// one spec must not be able to ask for an unbounded pool.
	MaxWorkers int
}

// DefaultsFor returns the option defaults for a job kind.
func DefaultsFor(kind string) Defaults {
	d := Defaults{Scale: 1, Seed: 1, Eval: "auto", Cycles: 500, MaxWorkers: 256}
	switch kind {
	case KindFaultSim, KindDiagnose:
		d.Scale = 0.1
	}
	return d
}

// LimitError is Normalize's rejection of a spec field above its
// DefaultsFor limit.
type LimitError struct {
	Field      string
	Value, Max int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("task: %s %d exceeds the limit of %d", e.Field, e.Value, e.Max)
}

// Normalize validates the spec and fills defaults from DefaultsFor, so
// that two specs that normalize equal describe the same run. It is
// idempotent; every pipeline entry point calls it.
func (sp *Spec) Normalize() error {
	switch sp.Version {
	case 0:
		sp.Version = SpecVersion
	case SpecVersion:
	default:
		return fmt.Errorf("task: unsupported spec version %d (this build speaks %d)", sp.Version, SpecVersion)
	}
	switch sp.Kind {
	case KindFlow, KindScreen, KindATPG, KindFaultSim, KindDiagnose:
	case "":
		return fmt.Errorf("task: spec missing kind")
	default:
		return fmt.Errorf("task: unknown kind %q (want flow, screen, atpg, faultsim or diagnose)", sp.Kind)
	}
	if sp.Bench == "" {
		if sp.Circuit == "" {
			return fmt.Errorf("task: spec missing circuit")
		}
		if sp.Circuit != "s27" {
			if _, err := gen.ProfileByName(sp.Circuit); err != nil {
				return fmt.Errorf("task: %w", err)
			}
		}
	}
	if sp.Scale < 0 || sp.Scale > 1 {
		return fmt.Errorf("task: scale %v out of range (0,1]", sp.Scale)
	}
	d := DefaultsFor(sp.Kind)
	if sp.Eval == "" {
		sp.Eval = d.Eval
	}
	if _, err := engine.ParseBackend(sp.Eval); err != nil {
		return fmt.Errorf("task: %w", err)
	}
	if sp.Seed == 0 {
		sp.Seed = d.Seed
	}
	if sp.Cycles <= 0 {
		sp.Cycles = d.Cycles
	}
	if sp.Workers < 0 {
		sp.Workers = d.Workers
	}
	if sp.Workers > d.MaxWorkers {
		return &LimitError{Field: "workers", Value: sp.Workers, Max: d.MaxWorkers}
	}
	if sp.ConeThreshold < 0 {
		sp.ConeThreshold = d.ConeThreshold
	}
	if sp.Units < 0 {
		sp.Units = 0
	}
	if sp.TraceParent != "" {
		tc, err := trace.Parse(sp.TraceParent)
		if err != nil {
			return fmt.Errorf("task: %w", err)
		}
		sp.TraceParent = tc.Traceparent()
	}
	return nil
}

// backend resolves the spec's evaluator backend; Normalize has already
// validated the name.
func (sp *Spec) backend() engine.Backend {
	name := sp.Eval
	if name == "" {
		name = "auto"
	}
	b, _ := engine.ParseBackend(name)
	return b
}

// BuildCircuit materializes the spec's circuit: the inline .bench
// netlist, the embedded s27, or a deterministic generated profile. It
// does not require a normalized spec (only the source fields are
// consulted), so analysis tools without a job kind can reuse it.
func (sp Spec) BuildCircuit() (*netlist.Circuit, error) {
	if sp.Bench != "" {
		name := sp.Circuit
		if name == "" {
			name = "bench"
		}
		return bench.Parse(strings.NewReader(sp.Bench), name)
	}
	if sp.Circuit == "" {
		return nil, fmt.Errorf("task: spec missing circuit")
	}
	if sp.Circuit == "s27" {
		return bench.MustS27(), nil
	}
	p, err := gen.ProfileByName(sp.Circuit)
	if err != nil {
		return nil, fmt.Errorf("task: %w", err)
	}
	if sp.Scale > 0 && sp.Scale < 1 {
		p = p.Scale(sp.Scale)
	}
	return gen.Generate(p, sp.Seed), nil
}

// InsertScan runs the spec's scan insertion on a circuit (chain count
// defaulted from the flip-flop count, exactly as the CLIs do).
func (sp Spec) InsertScan(c *netlist.Circuit) (*scan.Design, error) {
	n := sp.Chains
	if n == 0 {
		n = DefaultChains(len(c.FFs))
	}
	return tpi.Insert(c, tpi.Options{NumChains: n, Seed: sp.Seed})
}

// BuildDesign materializes the spec's circuit and inserts scan.
func (sp Spec) BuildDesign() (*scan.Design, error) {
	c, err := sp.BuildCircuit()
	if err != nil {
		return nil, err
	}
	return sp.InsertScan(c)
}

// Stimulus returns the fault-simulation input sequence for c: the
// inline Sequence text when set, otherwise the seeded random sequence
// of Cycles cycles.
func (sp Spec) Stimulus(c *netlist.Circuit) (faultsim.Sequence, error) {
	if sp.Sequence != "" {
		return faultsim.ReadSequence(strings.NewReader(sp.Sequence), c)
	}
	return RandomSequence(c, sp.Seed, sp.Cycles), nil
}

// DefaultChains picks the chain count the experiments use: enough
// chains to keep the longest chain near 350 flip-flops, as the paper
// keeps chain length "reasonable" on the larger circuits.
func DefaultChains(ffs int) int {
	switch {
	case ffs <= 250:
		return 1
	case ffs <= 700:
		return 2
	case ffs <= 1200:
		return 3
	case ffs <= 1500:
		return 4
	default:
		return 5
	}
}

// RandomSequence generates the deterministic random stimulus shared by
// the faultsim CLI's -random flag and faultsim daemon jobs: same seed,
// same generator, same sequence, so their coverage lines are
// byte-identical.
func RandomSequence(c *netlist.Circuit, seed int64, cycles int) faultsim.Sequence {
	rng := uint64(seed)*2862933555777941757 + 3037000493
	next := func() logic.V {
		rng = rng*6364136223846793005 + 1442695040888963407
		return logic.V((rng >> 33) & 1)
	}
	seq := make(faultsim.Sequence, cycles)
	for t := range seq {
		pi := make([]logic.V, len(c.Inputs))
		for i := range pi {
			pi[i] = next()
		}
		seq[t] = pi
	}
	return seq
}
