package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/journal"
)

// hub is a change-notification primitive between one job's journal and
// any number of SSE readers. It carries no events itself — readers keep
// their own cursor into the job's journal (Recorder.Since) and the hub
// only tells them "something changed": bump closes the current notify
// channel and installs a fresh one (an epoch), so every waiter wakes
// exactly once per change and none can miss a change that lands between
// reading the journal and blocking. close retires the hub for good: the
// final channel stays closed, so late waiters return immediately and
// find the terminal state.
type hub struct {
	mu     sync.Mutex
	ch     chan struct{}
	closed bool
}

func newHub() *hub {
	return &hub{ch: make(chan struct{})}
}

// bump wakes current waiters (new journal events).
func (h *hub) bump() {
	h.mu.Lock()
	if !h.closed {
		close(h.ch)
		h.ch = make(chan struct{})
	}
	h.mu.Unlock()
}

// close wakes current and all future waiters (job terminal).
func (h *hub) close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.ch)
	}
	h.mu.Unlock()
}

// isClosed reports whether close has run. For a job hub that means the
// job is terminal and its counters and ledger record are in.
func (h *hub) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// wait returns the current epoch's channel; it is closed at the next
// bump (or immediately when the hub is closed).
func (h *hub) wait() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ch
}

// sseEvent is the JSON payload of one streamed journal event (field
// names mirror journal.Event, lowercased).
type sseEvent struct {
	TNS    int64  `json:"t_ns"`
	DurNS  int64  `json:"dur_ns,omitempty"`
	Kind   string `json:"kind"`
	Arg    string `json:"arg,omitempty"`
	Worker int32  `json:"worker,omitempty"`
	A      int64  `json:"a,omitempty"`
	B      int64  `json:"b,omitempty"`
	C      int64  `json:"c,omitempty"`
	D      int64  `json:"d,omitempty"`
}

// handleEvents streams a job's journal as Server-Sent Events: one
// `event: <kind>` / `data: <json>` pair per journal event, in emission
// order, followed by a final `event: done` carrying the terminal job
// view once the job finishes and the stream drains. The stream also
// ends when the client disconnects. A ?kinds=batch,atpg filter keeps
// only the named event kinds (the done event always passes).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	keep := kindFilter(r.URL.Query().Get("kinds"))

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	cursor := 0
	for {
		// Grab the epoch before reading, so a change landing after the
		// read is guaranteed to wake the wait below. The hub closes after
		// the job's last event, so seeing it closed before the read means
		// the read drains the journal.
		epoch := j.hub.wait()
		closed := j.hub.isClosed()
		evs := j.rec.Since(cursor)
		if len(evs) > 0 {
			cursor += len(evs)
			for i := range evs {
				if !keep(evs[i].Kind) {
					continue
				}
				writeSSE(w, evs[i])
			}
			flusher.Flush()
			continue
		}
		if closed {
			payload, _ := json.Marshal(j.View())
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", payload)
			flusher.Flush()
			return
		}
		select {
		case <-epoch:
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, e journal.Event) {
	payload, _ := json.Marshal(sseEvent{
		TNS: e.TNS, DurNS: e.DurNS, Kind: e.Kind.String(), Arg: e.Arg,
		Worker: e.Worker, A: e.A, B: e.B, C: e.C, D: e.D,
	})
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Kind.String(), payload)
}

// kindFilter parses the ?kinds= comma list into a predicate (empty
// list admits everything).
func kindFilter(list string) func(journal.Kind) bool {
	if list == "" {
		return func(journal.Kind) bool { return true }
	}
	want := map[string]bool{}
	for _, k := range splitComma(list) {
		want[k] = true
	}
	return func(k journal.Kind) bool { return want[k.String()] }
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
