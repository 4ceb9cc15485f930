// Package trace is a stdlib-only, deterministic tracing layer for the
// SwitchPointer daemons. Spans are timed on the analyzer's *virtual*
// rpc.Clock — span start/end are simtime instants, never the wall clock —
// so the trace of a given scenario+query is byte-identical across runs and
// drift-gateable like every other virtual-time metric. Wall-clock readings
// may ride along only as an exempt annotation (Span.Wall), which the
// Canonical form strips.
//
// A trace is assembled from three places: the analyzer's Recorder (root
// span + one child span per charged Clock phase), instant child spans
// emitted by host/switch daemons when a request carries the X-SP-Trace
// header, and instant spans from the admission controller and alert
// pipeline. Each daemon keeps the last N traces in a FlightRecorder served
// at GET /traces and GET /traces/<id>; cluster merges the per-role trees by
// trace ID.
package trace

import (
	"cmp"
	"context"
	"slices"
	"strconv"
	"strings"

	"switchpointer/internal/simtime"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one node of a trace tree. IDs are deterministic: the analyzer's
// root span is "0", its phase children are ordinals "1", "2", …, and
// daemon-side children derive their ID from the parent ordinal plus the
// daemon's role, label, and endpoint (e.g. "4.host:10.0.0.5:headers-batch"),
// so the same diagnosis produces the same tree whether it runs in-memory,
// over loopback HTTP, or against a real spd trio.
type Span struct {
	ID     string       `json:"id"`
	Parent string       `json:"parent,omitempty"`
	Name   string       `json:"name"`
	Role   string       `json:"role"`
	Start  simtime.Time `json:"start"`
	End    simtime.Time `json:"end"`
	Attrs  []Attr       `json:"attrs,omitempty"`
	// Wall is an optional wall-clock annotation in nanoseconds (e.g. real
	// queue wait). It is the only nondeterministic field and is stripped by
	// Canonical.
	Wall int64 `json:"wall_ns,omitempty"`
}

// Duration returns the span's virtual duration.
func (s Span) Duration() simtime.Time { return s.End - s.Start }

// Trace is a set of spans sharing one trace ID.
type Trace struct {
	ID    string `json:"id"`
	Spans []Span `json:"spans"`
}

// compareID orders span IDs shorter-first, then lexicographically, so the
// ordinal IDs "2" < "10" sort numerically and dotted children group after
// their parent ordinal.
func compareID(a, b string) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return strings.Compare(a, b)
}

// canonical dedups spans by ID (first occurrence wins) and sorts them by
// (Start, ID), in place; it returns the deduped prefix of spans. A stable
// sort by ID puts each ID's first occurrence at the head of its run, the
// compaction keeps only run heads, and IDs are then unique, so (Start, ID)
// is a total order and the result does not depend on the input's order.
func canonical(spans []Span) []Span {
	slices.SortStableFunc(spans, func(a, b Span) int { return compareID(a.ID, b.ID) })
	spans = slices.CompactFunc(spans, func(a, b Span) bool { return a.ID == b.ID })
	slices.SortFunc(spans, func(a, b Span) int {
		if a.Start != b.Start {
			return cmp.Compare(a.Start, b.Start)
		}
		return compareID(a.ID, b.ID)
	})
	return spans
}

// Sorted returns a copy of the trace with spans deduped (first wins) and in
// canonical (Start, ID) order. Wall annotations are preserved.
func (t Trace) Sorted() Trace {
	return Trace{ID: t.ID, Spans: canonical(slices.Clone(t.Spans))}
}

// Canonical returns the Sorted copy with every wall-clock annotation
// stripped — the deterministic form golden files and byte-equality gates
// compare.
func (t Trace) Canonical() Trace {
	c := t.Sorted()
	for i := range c.Spans {
		c.Spans[i].Wall = 0
	}
	return c
}

// NewID derives a deterministic trace ID from the given parts: "sp-" and the
// 64-bit FNV-1a hash of the parts joined by NUL bytes, as 16 zero-padded hex
// digits. Identical queries yield identical IDs, which is what lets the
// loopback and spd-trio executions of the same scenario produce the same
// trace.
func NewID(parts ...string) string {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i, p := range parts {
		if i > 0 {
			h *= prime64 // the NUL separator: h ^= 0, then multiply
		}
		for j := 0; j < len(p); j++ {
			h ^= uint64(p[j])
			h *= prime64
		}
	}
	id := [19]byte{'s', 'p', '-'}
	for i := len(id) - 1; i >= 3; i-- {
		id[i] = "0123456789abcdef"[h&0xf]
		h >>= 4
	}
	return string(id[:])
}

// Header is the HTTP header carrying trace context between daemons.
const Header = "X-SP-Trace"

// RemoteContext is the trace context propagated over the wire: the trace
// ID, the analyzer-side parent span ordinal the request belongs to, and the
// analyzer's virtual time when the request was issued (daemon-side child
// spans are virtual-instant at that time).
type RemoteContext struct {
	TraceID string
	Parent  string
	At      simtime.Time
}

// Encode renders the header value: "<traceID>;<parent>;<virtual-ns>".
func (r RemoteContext) Encode() string {
	return r.TraceID + ";" + r.Parent + ";" + strconv.FormatInt(int64(r.At), 10)
}

// MaxIDLen bounds a trace ID a client may pin (ValidID).
const MaxIDLen = 128

// ValidID reports whether id can name a trace on every surface that carries
// one unescaped: 1 to MaxIDLen bytes of [A-Za-z0-9._-], other than the path
// segments "." and "..". Encode separates its fields with ';', net/http
// refuses a header value holding a control character, and /traces/<id> is a
// URL path, so an ID outside this set would lose its daemon spans, fail
// every request that carries it or name no trace.
func ValidID(id string) bool {
	if id == "" || len(id) > MaxIDLen || id == "." || id == ".." {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ParseRemote parses a header value produced by Encode.
func ParseRemote(s string) (RemoteContext, bool) {
	parts := strings.Split(s, ";")
	if len(parts) != 3 || parts[0] == "" {
		return RemoteContext{}, false
	}
	at, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return RemoteContext{}, false
	}
	return RemoteContext{TraceID: parts[0], Parent: parts[1], At: simtime.Time(at)}, true
}

type ctxKey int

const (
	recorderKey ctxKey = iota
	remoteKey
)

// NewContext attaches a Recorder to ctx.
func NewContext(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey, rec)
}

// FromContext returns the Recorder attached to ctx, or nil.
func FromContext(ctx context.Context) *Recorder {
	rec, _ := ctx.Value(recorderKey).(*Recorder)
	return rec
}

// ContextWithRemote attaches an outbound RemoteContext to ctx; the rpc
// client injects it as the X-SP-Trace header on every request made with
// that ctx.
func ContextWithRemote(ctx context.Context, rc RemoteContext) context.Context {
	if rc.TraceID == "" {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, rc)
}

// RemoteFromContext returns the outbound RemoteContext on ctx, if any.
func RemoteFromContext(ctx context.Context) (RemoteContext, bool) {
	rc, ok := ctx.Value(remoteKey).(RemoteContext)
	return rc, ok
}
