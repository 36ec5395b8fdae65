package fsct

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
)

// Observability facade. The flow is uninstrumented by default; attach a
// collector to make it account for itself:
//
//	col := fsct.NewCollector()
//	rep, _ := fsct.RunFlowCtx(ctx, d, fsct.FlowParams{Obs: col})
//	fmt.Print(fsct.FormatMetrics(rep.Metrics))
//
// The same collector can be shared across RunFlowCtx, ScreenFaultsCtx
// and SimulateFaultsCtx calls; Snapshot (or Report.Metrics) freezes it into
// plain JSON-ready data.

// Collector gathers phase timings, counters, histograms and worker-pool
// utilization across a run. A nil *Collector is a valid no-op sink.
type Collector = obs.Collector

// Metrics is a frozen, JSON-ready snapshot of a Collector.
type Metrics = obs.Metrics

// NewCollector returns an enabled metrics collector.
func NewCollector() *Collector { return obs.New() }

// PublishMetrics exports col's live snapshot as the expvar variable
// "fsct_metrics" (visible on /debug/vars of a ServeDebug server) and as
// the OpenMetrics exposition ServeDebug serves at /metrics. Calling it
// again rebinds both to the new collector.
func PublishMetrics(col *Collector) { obs.Publish(col) }

// ServeDebug starts an HTTP server on addr exposing the standard
// net/http/pprof profiles under /debug/pprof/, expvar (including any
// published collector) under /debug/vars, and a Prometheus/OpenMetrics
// text rendering of the published collector's live snapshot at
// /metrics. The server runs its own mux — nothing registered on
// http.DefaultServeMux leaks onto it. It returns once the listener is
// bound; serving continues in the background. Close (or Shutdown) the
// returned server to stop it; its Addr field carries the bound address,
// so addr ":0" works for tests.
func ServeDebug(addr string) (*http.Server, error) { return obs.ServeDebug(addr) }

// WriteOpenMetrics renders a metrics snapshot in the OpenMetrics text
// exposition format (counters, phase/pool gauges, and native cumulative
// histogram buckets), ending with the mandatory # EOF terminator.
func WriteOpenMetrics(w io.Writer, m *Metrics) error { return obs.WriteOpenMetrics(w, m) }

// Journal is the flow's flight recorder: a bounded in-memory event
// buffer that phases, worker pools, screening, ATPG, fault simulation
// and the artifact cache emit structured events into. Attach one to a
// Collector with SetJournal; a nil *Journal is a valid no-op sink.
type Journal = journal.Recorder

// JournalEvent is one recorded flight-recorder event.
type JournalEvent = journal.Event

// NewJournal returns a flight recorder holding up to capacity events
// (<= 0 selects the default, 65536). Overflow drops new events but
// keeps counting them.
func NewJournal(capacity int) *Journal { return journal.New(capacity) }

// WriteJournalTrace serializes journal events (Journal.Snapshot) in
// Chrome trace-event JSON format, loadable by chrome://tracing and
// Perfetto. dropped (Journal.Dropped) is annotated in the timeline.
func WriteJournalTrace(w io.Writer, events []JournalEvent, dropped int64) error {
	return journal.WriteTrace(w, events, dropped)
}

// Provenance is the journal-derived explanation of what the flow
// decided about one fault; see ExplainFault.
type Provenance = core.Provenance

// ExplainFault replays a journal snapshot and explains fault f: its
// screening category with the implicating nets and chain locations,
// every ATPG attempt targeted at it, and its detection, if any.
func ExplainFault(d *Design, events []JournalEvent, f Fault) *Provenance {
	return core.BuildProvenance(d.C, events, f)
}

// FormatMetrics renders a metrics snapshot as an indented text block:
// per-phase wall times with their share of the total, sorted counters,
// histogram summaries and worker-pool utilization.
func FormatMetrics(m *Metrics) string {
	if m == nil {
		return "metrics: (none)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "metrics: wall=%s\n", round(time.Duration(m.WallNS)))
	if len(m.Phases) > 0 {
		b.WriteString("  phases:\n")
		for _, p := range m.Phases {
			share := 0.0
			if m.WallNS > 0 {
				share = 100 * float64(p.WallNS) / float64(m.WallNS)
			}
			fmt.Fprintf(&b, "    %-24s %10s  %5.1f%%\n",
				p.Name, round(time.Duration(p.WallNS)), share)
		}
	}
	if len(m.Counters) > 0 {
		b.WriteString("  counters:\n")
		for _, name := range sortedKeys(m.Counters) {
			fmt.Fprintf(&b, "    %-32s %12d\n", name, m.Counters[name])
		}
	}
	if len(m.Histograms) > 0 {
		b.WriteString("  histograms:\n")
		for _, name := range sortedKeys(m.Histograms) {
			h := m.Histograms[name]
			mean := 0.0
			if h.Count > 0 {
				mean = float64(h.Sum) / float64(h.Count)
			}
			fmt.Fprintf(&b, "    %-32s count=%d sum=%d max=%d mean=%.1f p50=%d p95=%d p99=%d\n",
				name, h.Count, h.Sum, h.Max, mean, h.P50, h.P95, h.P99)
		}
	}
	if len(m.Pools) > 0 {
		b.WriteString("  pools:\n")
		for _, name := range sortedKeys(m.Pools) {
			p := m.Pools[name]
			fmt.Fprintf(&b, "    %-16s util=%5.1f%%  calls=%d  workers=%d  wall=%s\n",
				name, 100*p.Utilization, p.Calls, len(p.Workers), round(time.Duration(p.WallNS)))
			for i, w := range p.Workers {
				fmt.Fprintf(&b, "      worker %-2d busy=%-10s items=%d\n",
					i, round(time.Duration(w.BusyNS)), w.Items)
			}
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
