package trace

import (
	"strconv"
	"sync"

	"switchpointer/internal/simtime"
)

// Recorder accumulates one trace on the analyzer side. The root span (ID
// "0") covers the whole diagnosis; each charged rpc.Clock phase becomes an
// ordinal child span ("1", "2", …) in charge order, which is deterministic
// because the analyzer charges its clock sequentially within a procedure.
//
// A Recorder carries inline room for a typical diagnosis's spans and their
// attributes, so NewRecorder is one allocation and recording a diagnosis of
// up to eight annotated phases allocates nothing more. Attributes live in an
// arena: AnnotateLast carves each span's Attrs out of it with a full slice
// expression (cap == len), so a later append, to the arena or to a returned
// span's Attrs, can never overwrite another span's attributes. Traces
// returned by Trace share those Attrs with the recorder; treat them as
// read-only.
//
// A Recorder is safe for concurrent use: daemon-side handlers in loopback
// mode may record into the same recorder the analyzer is writing.
type Recorder struct {
	mu       sync.Mutex
	id       string
	root     Span
	spans    []Span
	attrs    []Attr // the arena AnnotateLast carves span attributes from
	phaseN   int
	lastIdx  int // index into spans of the last recorded span, -1 if none
	anchored bool
	finished bool

	spanBuf [8]Span // spans' and attrs' initial backing arrays
	attrBuf [8]Attr
}

// NewRecorder starts a trace with the given deterministic ID. role labels
// the root span's emitting daemon role and rootName is typically the query
// kind.
func NewRecorder(id, role, rootName string) *Recorder {
	r := &Recorder{
		id:      id,
		root:    Span{ID: "0", Name: rootName, Role: role},
		lastIdx: -1,
	}
	r.spans = r.spanBuf[:0]
	r.attrs = r.attrBuf[:0]
	return r
}

// ID returns the trace ID.
func (r *Recorder) ID() string { return r.id }

// Anchor sets the root span's start to the given virtual time. Only the
// first call takes effect (the clock anchors the recorder when tracing is
// armed; admission may have anchored it earlier at the query's own time).
func (r *Recorder) Anchor(t simtime.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.anchored {
		return
	}
	r.anchored = true
	r.root.Start = t
}

// Phase records one charged clock phase as the next ordinal child span of
// the root.
func (r *Recorder) Phase(name string, start, end simtime.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.phaseN++
	r.spans = append(r.spans, Span{
		ID:     strconv.Itoa(r.phaseN),
		Parent: r.root.ID,
		Name:   name,
		Role:   r.root.Role,
		Start:  start,
		End:    end,
	})
	r.lastIdx = len(r.spans) - 1
}

// NextPhaseID returns the ordinal ID the next Phase call will mint — the
// parent ID for requests issued *before* their round is charged (the
// analyzer fans out first, then charges the clock once per round).
func (r *Recorder) NextPhaseID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return strconv.Itoa(r.phaseN + 1)
}

// AnnotateLast appends attributes to the most recently recorded span.
func (r *Recorder) AnnotateLast(attrs ...Attr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastIdx < 0 {
		return
	}
	s := &r.spans[r.lastIdx]
	start := len(r.attrs)
	r.attrs = append(append(r.attrs, s.Attrs...), attrs...)
	s.Attrs = r.attrs[start:len(r.attrs):len(r.attrs)]
}

// Record adds an arbitrary span (e.g. the admission controller's queue-wait
// span) to the trace.
func (r *Recorder) Record(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	r.lastIdx = len(r.spans) - 1
}

// Finish closes the root span at the given virtual time. Only the first
// call takes effect, so a trace is closed exactly once even on error paths.
func (r *Recorder) Finish(t simtime.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	r.finished = true
	r.root.End = t
}

// Trace returns a canonical-order snapshot of the accumulated trace
// (root span included), with Wall annotations preserved. The snapshot is
// one copy of the spans, sorted in place.
func (r *Recorder) Trace() Trace {
	r.mu.Lock()
	spans := make([]Span, 0, len(r.spans)+1)
	spans = append(spans, r.root)
	spans = append(spans, r.spans...)
	id := r.id
	r.mu.Unlock()
	return Trace{ID: id, Spans: canonical(spans)}
}
