package fsct

// Observability overhead guard. The obs layer's contract is that
// DISABLED instrumentation (the nil collector, the library default) is
// free on the hot paths: the compiled-evaluator screening and fault
// simulation engines pay only nil-receiver checks at batch granularity,
// and an enabled collector WITHOUT a journal pays no flight-recorder
// cost either (the recorder handle is resolved once per pool, not per
// item). The acceptance bound for this repo is <2% on the PR-1 compiled
// evaluator path; compare the off/on/journal/trace tiers with benchstat:
//
//	go test -bench 'ObsOverhead' -count 10 > obs.txt
//	benchstat obs.txt   # off vs on vs journal vs trace, per engine
//
// The "on" and "journal" variants additionally quantify what enabled
// instrumentation costs (they are allowed to be slower; they exist so
// a regression in the disabled path can't hide behind a cheap enabled
// path or vice versa).

import (
	"context"
	"io"
	"testing"

	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/trace"
)

// journalCollector is an enabled collector with a flight recorder
// attached — the fully instrumented tier the CLIs run under -tracefile.
func journalCollector() *Collector {
	col := NewCollector()
	col.SetJournal(NewJournal(0))
	return col
}

// traceTier runs fn under a journal collector, then assembles the
// recorded events into a span tree and exports it as OTLP/JSON — the
// full distributed-tracing tier the CLIs run under -otlpfile. The
// export is per-run here (the CLIs export once per process), so the
// tier is an upper bound on what tracing can cost.
func traceTier(fn func(col *Collector)) {
	col := NewCollector()
	rec := NewJournal(0)
	col.SetJournal(rec)
	fn(col)
	ctx := trace.NewContext()
	spans := trace.Assemble(ctx, trace.SpanID{}, "bench", rec.Snapshot(), rec.Elapsed().Nanoseconds())
	_ = trace.WriteOTLP(io.Discard, trace.Trace{Ctx: ctx, OriginNS: 0, Spans: spans})
}

// BenchmarkObsOverheadScreen measures the screening engine with
// instrumentation off (nil collector — the default) and on, at the
// serial width so the comparison is pure hot-loop cost, not scheduling
// noise.
func BenchmarkObsOverheadScreen(b *testing.B) {
	d := benchDesign(b, "s38584", 0)
	faults := CollapsedFaults(d.C)
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ScreenFaultsCtx(context.Background(), d, faults, ScreenOptions{Workers: 1})
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ScreenFaultsCtx(context.Background(), d, faults, ScreenOptions{Workers: 1, Obs: NewCollector()})
		}
	})
	b.Run("journal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ScreenFaultsCtx(context.Background(), d, faults, ScreenOptions{Workers: 1, Obs: journalCollector()})
		}
	})
	b.Run("trace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			traceTier(func(col *Collector) {
				ScreenFaultsCtx(context.Background(), d, faults, ScreenOptions{Workers: 1, Obs: col})
			})
		}
	})
}

// BenchmarkObsOverheadFaultSim measures compiled-evaluator sequential
// fault simulation of the alternating sequence with instrumentation
// off and on.
func BenchmarkObsOverheadFaultSim(b *testing.B) {
	d := benchDesign(b, "s38584", 0)
	faults := fault.Collapsed(d.C)
	seq := faultsim.Sequence(d.AlternatingSequence(8))
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			faultsim.RunCtx(context.Background(), d.C, seq, faults, faultsim.Options{Workers: 1})
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			faultsim.RunCtx(context.Background(), d.C, seq, faults, faultsim.Options{Workers: 1, Obs: NewCollector()})
		}
	})
	b.Run("journal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			faultsim.RunCtx(context.Background(), d.C, seq, faults, faultsim.Options{Workers: 1, Obs: journalCollector()})
		}
	})
	b.Run("trace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			traceTier(func(col *Collector) {
				faultsim.RunCtx(context.Background(), d.C, seq, faults, faultsim.Options{Workers: 1, Obs: col})
			})
		}
	})
}

// BenchmarkObsOverheadFlow measures the whole three-step flow at the
// three instrumentation tiers — the journal tier is what every event
// producer (phases, pools, screening, ATPG, fault sim, cache) costs
// together, end to end.
func BenchmarkObsOverheadFlow(b *testing.B) {
	d := benchDesign(b, "s9234", 0)
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunFlowCtx(context.Background(), d, FlowParams{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunFlowCtx(context.Background(), d, FlowParams{Workers: 1, Obs: NewCollector()}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("journal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunFlowCtx(context.Background(), d, FlowParams{Workers: 1, Obs: journalCollector()}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			traceTier(func(col *Collector) {
				if _, err := RunFlowCtx(context.Background(), d, FlowParams{Workers: 1, Obs: col}); err != nil {
					b.Fatal(err)
				}
			})
		}
	})
}
