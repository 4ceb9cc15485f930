package trace

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
)

// DefaultFlightCap is the default number of traces a FlightRecorder keeps.
const DefaultFlightCap = 256

// FlightRecorder is a bounded ring buffer of the last N traces seen by a
// daemon, served at GET /traces (index) and GET /traces/<id> (one trace,
// canonical span order). Spans recorded for an already-known trace merge
// into it (dedup by span ID, first recording wins); once the bound is
// exceeded the oldest trace is evicted.
type FlightRecorder struct {
	mu    sync.Mutex
	limit int
	role  string
	order []string // trace IDs, oldest first
	byID  map[string]*recorded
	peers map[string]string
}

// recorded is one trace in the ring: its spans in arrival order and the set
// of their IDs, kept so a Record call costs its own spans and not a pass
// over everything the trace already holds.
type recorded struct {
	spans []Span
	ids   map[string]struct{}
}

// NewFlightRecorder creates a flight recorder for the given daemon role.
// limit <= 0 selects DefaultFlightCap.
func NewFlightRecorder(role string, limit int) *FlightRecorder {
	if limit <= 0 {
		limit = DefaultFlightCap
	}
	return &FlightRecorder{limit: limit, role: role, byID: make(map[string]*recorded)}
}

// SetPeers records the base URLs of the other roles' daemons; the index
// advertises them so spctl -trace can walk the whole trio from the
// analyzer's URL alone.
func (f *FlightRecorder) SetPeers(peers map[string]string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.peers = peers
}

// Record merges spans into the trace with the given ID, creating it (and
// evicting the oldest beyond the bound) if new. Spans whose ID already
// exists in the trace are dropped — first recording wins, which keeps
// repeated identical queries from growing the trace and makes /traces
// byte-stable on an idle daemon.
func (f *FlightRecorder) Record(traceID string, spans ...Span) {
	if traceID == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	tr, known := f.byID[traceID]
	if !known {
		f.order = append(f.order, traceID)
		for len(f.order) > f.limit {
			delete(f.byID, f.order[0])
			f.order = f.order[1:]
		}
		tr = &recorded{ids: make(map[string]struct{}, len(spans))}
		f.byID[traceID] = tr
	}
	for _, s := range spans {
		if _, dup := tr.ids[s.ID]; dup {
			continue
		}
		tr.ids[s.ID] = struct{}{}
		tr.spans = append(tr.spans, s)
	}
}

// Add records a whole trace.
func (f *FlightRecorder) Add(t Trace) { f.Record(t.ID, t.Spans...) }

// Get returns the trace with the given ID in canonical span order.
func (f *FlightRecorder) Get(id string) (Trace, bool) {
	f.mu.Lock()
	tr, ok := f.byID[id]
	if !ok {
		f.mu.Unlock()
		return Trace{}, false
	}
	cp := make([]Span, len(tr.spans))
	copy(cp, tr.spans)
	f.mu.Unlock()
	return Trace{ID: id, Spans: canonical(cp)}, true
}

// List returns the recorded trace IDs, oldest first.
func (f *FlightRecorder) List() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.order))
	copy(out, f.order)
	return out
}

// Index is the GET /traces response body.
type Index struct {
	Role   string            `json:"role"`
	Traces []string          `json:"traces"`
	Peers  map[string]string `json:"peers,omitempty"`
}

// Handler serves the flight recorder: GET "" or "/" returns the Index, GET
// "/<id>" one trace as canonically-sorted JSON (404 when unknown). State is
// copied under the lock and encoded outside it.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		id := strings.Trim(r.URL.Path, "/")
		if id == "" {
			f.mu.Lock()
			idx := Index{Role: f.role, Traces: make([]string, len(f.order)), Peers: f.peers}
			copy(idx.Traces, f.order)
			f.mu.Unlock()
			writeTraceJSON(w, idx)
			return
		}
		t, ok := f.Get(id)
		if !ok {
			http.Error(w, "unknown trace", http.StatusNotFound)
			return
		}
		writeTraceJSON(w, t)
	})
}

func writeTraceJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}
