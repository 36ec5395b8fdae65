package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Span sources: a call the benchmark made into a layer, or an interval
// the program itself recorded (obs phases, job timestamps) that the
// benchmark replays into the tree.
const (
	srcBench   = "bench"
	srcProgram = "program"
)

// span is one recorded interval, in nanoseconds from the tracer's
// origin. Parent 0 marks a root.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Source string            `json:"source"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Self   int64             `json:"self_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a run's spans in memory until the run ends. The nil
// tracer is the untraced run: every method is a no-op, so the timed
// code is the same in both runs.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished interval and returns its id (0 on the nil
// tracer). attrs are key, value pairs.
func (t *tracer) add(parent int, name, source string, start, end time.Time, attrs ...string) int {
	if t == nil {
		return 0
	}
	if end.Before(start) { // stamps from two clocks can cross by a hair
		end = start
	}
	s := span{Parent: parent, Name: name, Source: source,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	if len(attrs) > 0 {
		s.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			s.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// open records a span that starts now; close it with end.
func (t *tracer) open(parent int, name string, attrs ...string) int {
	now := time.Now()
	return t.add(parent, name, srcBench, now, now, attrs...)
}

// end closes a span opened with open.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span and returns its wall time, which it
// measures whether or not the tracer records.
func (t *tracer) call(parent int, name string, fn func()) time.Duration {
	id := t.open(parent, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// finish computes every span's self time: its duration minus the part
// of it that the union of its children's intervals covers.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return slices.Clone(t.spans)
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans saves the spans as JSON, creating the file's directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// selfByName sums self time per span name, and per "name.kind" for
// spans that carry a kind attribute.
func selfByName(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.Self)
		if k := s.Attrs["kind"]; k != "" {
			out[s.Name+"."+k] += time.Duration(s.Self)
		}
	}
	return out
}
