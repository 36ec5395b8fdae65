// Package ledger is the persistent run history of the CLIs: an
// append-only JSONL file where every opted-in run (-ledger <path>, see
// cmd/internal/obsflags) leaves one schema-versioned record per circuit
// it processed — timestamp, CLI name, circuit structural hash, the
// flags the run was invoked with, exit status, wall time, and the
// flattened observability metrics snapshot.
//
// The format is deliberately boring: one JSON object per line, appended
// with a single O_APPEND write per run, no index, no compaction. That
// makes writes crash-safe in the only way that matters for a ledger —
// a run killed mid-write can corrupt at most the final line, and Read
// tolerates exactly that (a torn last line is dropped; corruption
// anywhere else is an error worth hearing about). Concurrent appenders
// on one machine interleave whole lines through O_APPEND.
//
// cmd/fsctstats queries the ledger: filtering, per-circuit trends, and
// cross-run drift detection against a rolling median.
package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Schema is the current record schema version, stamped into every
// appended record so future readers can migrate old ledgers.
const Schema = 1

// Record is one ledger line: one CLI run over one circuit (commands
// that process several circuits append one record each; commands with
// no circuit leave Circuit and Hash empty).
type Record struct {
	// Schema is the record's schema version (see the package constant).
	Schema int `json:"schema"`
	// Time is when the run started.
	Time time.Time `json:"time"`
	// CLI is the command name (fsctest, faultsim, ...).
	CLI string `json:"cli"`
	// Circuit is the circuit name the record covers, if any.
	Circuit string `json:"circuit,omitempty"`
	// Hash is the circuit's structural hash (the engine cache key),
	// rendered as 16 hex digits; runs on a structurally identical
	// circuit carry the same hash even across machines.
	Hash string `json:"hash,omitempty"`
	// Flags holds the flags explicitly set on the command line.
	Flags map[string]string `json:"flags,omitempty"`
	// Exit is the process exit status (non-zero for failed or
	// interrupted runs — partial SIGINT runs are recorded too).
	Exit int `json:"exit"`
	// WallNS is the process wall time at flush, in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Metrics is the flattened observability snapshot: every numeric
	// leaf of obs.Metrics keyed by dotted path ("counters.engine.cache.
	// hits", "histograms.atpg.backtracks.p95", "pools.screen.
	// utilization"), plus CLI-provided headline scalars such as
	// "coverage".
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Server describes the daemon job the record came from, when the
	// run executed inside fsctd rather than a batch CLI. Nil for batch
	// records; readers must tolerate its absence (records written
	// before the service layer existed never carry it).
	Server *ServerMeta `json:"server,omitempty"`
}

// ServerMeta is the daemon-side identity of a ledger record: which
// fsctd job produced it and how that job fared in the queue.
type ServerMeta struct {
	// JobID is the daemon-assigned job identifier.
	JobID string `json:"job_id"`
	// Kind is the job kind (flow, screen, atpg, faultsim, diagnose).
	Kind string `json:"kind"`
	// Status is the terminal job status (done, failed, canceled).
	Status string `json:"status"`
	// QueueNS is how long the job waited for a runner, in nanoseconds.
	QueueNS int64 `json:"queue_ns"`
}

// HashString renders a structural hash the way Record.Hash stores it.
func HashString(h uint64) string { return fmt.Sprintf("%016x", h) }

// NewRecord composes the record of one run over circuit: the flattened
// metrics snapshot with the extra headline scalars ("coverage") merged
// in, and the structural hash (0 for none) rendered by HashString. The
// writer completes the session fields (Schema, Time, CLI, Flags, Exit,
// WallNS).
func NewRecord(circuit string, hash uint64, m *obs.Metrics, extra map[string]float64) Record {
	flat := FlattenMetrics(m)
	if flat == nil && len(extra) > 0 {
		flat = make(map[string]float64, len(extra))
	}
	for k, v := range extra {
		flat[k] = v
	}
	rec := Record{Circuit: circuit, Metrics: flat}
	if hash != 0 {
		rec.Hash = HashString(hash)
	}
	return rec
}

// FlattenMetrics reduces an obs snapshot to the flat numeric map a
// Record carries. Nil in, nil out.
func FlattenMetrics(m *obs.Metrics) map[string]float64 {
	if m == nil {
		return nil
	}
	flat, err := flattenValue(m)
	if err != nil {
		// obs.Metrics is plain data; its JSON round trip cannot fail.
		// Keep the record rather than losing the run over a metric map.
		return nil
	}
	return flat
}

// flattenValue marshals v through JSON and reduces the decoded document
// to its numeric leaves keyed by dotted path. Array elements are
// labeled by their "circuit" or "name" field when they have one (their
// index otherwise), so a pool or phase keeps its key when its position
// in the snapshot moves.
func flattenValue(v any) (map[string]float64, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	flatten("", doc, out)
	return out, nil
}

func flatten(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			flatten(joinKey(prefix, k), val, out)
		}
	case []any:
		for i, val := range x {
			key := strconv.Itoa(i)
			if m, ok := val.(map[string]any); ok {
				if name, ok := m["circuit"].(string); ok {
					key = name
				} else if name, ok := m["name"].(string); ok {
					key = name
				}
			}
			flatten(joinKey(prefix, key), val, out)
		}
	case float64:
		out[prefix] = x
	}
}

func joinKey(prefix, k string) string {
	if prefix == "" {
		return k
	}
	return prefix + "." + k
}

// Append appends the records to the JSONL ledger at path, creating the
// file (and nothing else — the parent directory must exist) on first
// use. All lines go out in one write on an O_APPEND descriptor, so
// concurrent appenders interleave whole records, and a crash can tear
// at most the file's final line.
func Append(path string, recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	var buf strings.Builder
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("ledger: encode record: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	_, werr := f.WriteString(buf.String())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("ledger: append %s: %w", path, werr)
	}
	return nil
}

// Read parses every record in the ledger at path, in file order (which
// is append order: oldest first). Blank lines are skipped. A final line
// that fails to parse is dropped silently — that is the torn write of a
// crashed run, the case the append protocol explicitly leaves behind —
// but a malformed line anywhere earlier is an error, because it means
// the file was edited or corrupted, not torn.
func Read(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	defer f.Close()

	var (
		recs    []Record
		pending string // candidate torn line: bad JSON, tolerated only at EOF
		lineNo  int
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if pending != "" {
			return nil, fmt.Errorf("ledger: %s:%d: malformed record mid-file", path, lineNo-1)
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			pending = line
			continue
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: read %s: %w", path, err)
	}
	return recs, nil
}

// Filter selects ledger records. The zero value matches everything.
type Filter struct {
	// CLI keeps only records from this command, when non-empty.
	CLI string
	// Circuit keeps only records for this circuit name, when non-empty.
	Circuit string
	// Since keeps only records at or after this time, when non-zero.
	Since time.Time
	// Last keeps only the newest N matching records, when positive.
	Last int
}

// Match reports whether one record passes the CLI / circuit / time
// criteria (Last is an Apply-level cut, not per record).
func (f Filter) Match(r Record) bool {
	if f.CLI != "" && r.CLI != f.CLI {
		return false
	}
	if f.Circuit != "" && r.Circuit != f.Circuit {
		return false
	}
	if !f.Since.IsZero() && r.Time.Before(f.Since) {
		return false
	}
	return true
}

// Apply filters records (which must be in append order) and applies the
// Last cut, preserving order.
func (f Filter) Apply(recs []Record) []Record {
	var out []Record
	for _, r := range recs {
		if f.Match(r) {
			out = append(out, r)
		}
	}
	if f.Last > 0 && len(out) > f.Last {
		out = out[len(out)-f.Last:]
	}
	return out
}
