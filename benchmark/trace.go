package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/cluster"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
)

// span is one timed call across a layer boundary, recorded by a wrapper the
// benchmark puts around a public seam — never from inside the program.
// Times are nanoseconds since the tracer was made.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"` // the root span's ID: shared by one operation's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Kind qualifies the name: the query kind on analyzer.run, "switch" or
	// "host" on rpc.roundtrip.
	Kind string `json:"kind,omitempty"`
	// N counts the work behind the span: requests of a directory round,
	// hosts of a host round, calls folded into an aggregated span.
	N int `json:"n,omitempty"`
	// rpc.roundtrip only: when the response headers arrived, and the body
	// sizes either way.
	HeadersAt int64 `json:"headers_ns,omitempty"`
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// spanRef names a span from inside a context or an X-Bench-Span header: the
// operation it belongs to and the span that is the parent of whatever is
// started next.
type spanRef struct{ op, parent uint64 }

type spanKey struct{}

// benchHeader carries a spanRef across HTTP as "<op>.<parent>".
const benchHeader = "X-Bench-Span"

func (r spanRef) header() string {
	return strconv.FormatUint(r.op, 10) + "." + strconv.FormatUint(r.parent, 10)
}

func parseSpanRef(h string) (spanRef, bool) {
	a, b, ok := strings.Cut(h, ".")
	if !ok {
		return spanRef{}, false
	}
	op, err1 := strconv.ParseUint(a, 10, 64)
	parent, err2 := strconv.ParseUint(b, 10, 64)
	return spanRef{op: op, parent: parent}, err1 == nil && err2 == nil
}

// message is one captured HTTP exchange of the first traced operation; the
// JSON rungs re-encode and re-decode these bodies.
type message struct {
	path      string
	req, resp []byte
}

// tracer collects spans in memory. Spans of the operation in flight sit in
// cur; fold moves them into per-operation samples (and keeps the first few
// operations whole for the dump), so memory stays bounded however long the
// traced window runs.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu       sync.Mutex
	cur      []span
	captured []message // the first operation's bodies

	// capturing is set until the first fold: requests started under it keep
	// their bodies.
	capturing atomic.Bool

	kept    []span // whole operations kept for the dump
	keptOps int
	ops     int

	// samples holds one value per operation ("op:" keys: sums and counts
	// over the operation's spans) or per span ("span:" keys: durations).
	samples map[string][]float64

	newConns atomic.Int64 // connections the switch and host servers accepted
}

const dumpOps = 32 // operations kept whole in the trace dump

func newTracer() *tracer {
	t := &tracer{epoch: wallNow(), samples: make(map[string][]float64)}
	t.capturing.Store(true)
	return t
}

func (t *tracer) now() int64 { return int64(wallNow().Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.cur = append(t.cur, s)
	t.mu.Unlock()
}

// live is a span that has started; end records it.
type live struct {
	t *tracer
	s span
}

// start opens a span under ctx's current span (a new operation when ctx has
// none) and returns the context its callees should run under.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *live) {
	id := t.nextID.Add(1)
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		ref = spanRef{op: id}
	}
	l := &live{t: t, s: span{ID: id, Parent: ref.parent, Op: ref.op, Name: name, Start: t.now()}}
	return context.WithValue(ctx, spanKey{}, spanRef{op: ref.op, parent: id}), l
}

func (l *live) end() {
	l.s.End = l.t.now()
	l.t.add(l.s)
}

func (t *tracer) sample(key string, v float64) { t.samples[key] = append(t.samples[key], v) }

// reset forgets everything folded so far — the traced warm-up — but keeps
// the captured bodies.
func (t *tracer) reset() {
	t.samples = make(map[string][]float64)
	t.kept, t.keptOps, t.ops = nil, 0, 0
	t.newConns.Store(0)
}

// fold closes the operation in flight: its spans become samples. Called by
// the harness after each traced operation returned and was checked, when
// every span of the operation has ended (a server-side span ends before the
// response's last byte is flushed to the client).
func (t *tracer) fold() {
	t.capturing.Store(false)
	t.mu.Lock()
	spans := t.cur
	t.cur = nil
	t.mu.Unlock()

	byID := make(map[uint64]span, len(spans))
	type total struct{ sum, count, n float64 }
	byName := make(map[string]*total)
	for _, s := range spans {
		byID[s.ID] = s
		key := s.Name
		if s.Kind != "" {
			key += "." + s.Kind
		}
		t.sample("span:"+key, s.dur())
		tot := byName[s.Name]
		if tot == nil {
			tot = new(total)
			byName[s.Name] = tot
		}
		tot.sum += s.dur()
		tot.count++
		tot.n += float64(s.N)
	}
	for name, tot := range byName {
		t.sample("op:sum:"+name, tot.sum)
		t.sample("op:count:"+name, tot.count)
		t.sample("op:n:"+name, tot.n)
	}

	var self, reqBytes, respBytes float64
	for _, s := range spans {
		switch s.Name {
		case "analyzer.run":
			self += selfTime(s, spans)
			if p, ok := byID[s.Parent]; ok && p.Name == "cluster.diagnose_server" {
				t.sample("op:admission", float64(s.Start-p.Start))
				t.sample("op:encode", float64(p.End-s.End))
			}
		case "cluster.diagnose_server":
			// The operation's root span carries the operation's ID.
			t.sample("op:client_overhead", byID[s.Op].dur()-s.dur())
		case "rpc.roundtrip":
			reqBytes += float64(s.ReqBytes)
			respBytes += float64(s.RespBytes)
			t.sample("span:rpc.body_read", float64(s.End-s.HeadersAt))
		case "switchagent.http", "hostagent.http":
			// What the round trip cost beyond the handler it reached:
			// net/http on both sides, TCP, and goroutine scheduling.
			if p, ok := byID[s.Parent]; ok && p.Name == "rpc.roundtrip" {
				t.sample("span:rpc.wire", p.dur()-s.dur())
			}
		case "bench.http":
			t.sample("op:report_bytes", float64(s.RespBytes))
		}
	}
	t.sample("op:analyzer.self", self)
	t.sample("op:req_bytes", reqBytes)
	t.sample("op:resp_bytes", respBytes)

	t.ops++
	if t.keptOps < dumpOps {
		t.kept = append(t.kept, spans...)
		t.keptOps++
	}
}

// selfTime is s's duration minus the part of it its children cover. The
// children of one span may overlap (a fan-out), so the covered part is the
// union of their intervals, clipped to s.
func selfTime(s span, all []span) float64 {
	var kids [][2]int64
	for _, c := range all {
		if c.Parent == s.ID {
			kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
	}
	slices.SortFunc(kids, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var covered, edge int64 = 0, s.Start
	for _, k := range kids {
		if k[1] <= edge {
			continue
		}
		covered += k[1] - max(k[0], edge)
		edge = k[1]
	}
	return s.dur() - float64(covered)
}

// p50 and avg read the folded samples; a key nothing recorded reads 0.
func (t *tracer) p50(key string) float64 {
	return median(append([]float64(nil), t.samples[key]...))
}

func (t *tracer) avg(key string) float64 { return mean(t.samples[key]) }

// dump writes the kept operations' spans as JSON: {"workload", "seed",
// "ops_traced", "spans": [...]}. Every span names its parent and its
// operation, so the file reads as one tree per operation.
func (t *tracer) dump(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(struct {
		Workload  string `json:"workload"`
		Seed      int64  `json:"seed"`
		OpsTraced int    `json:"ops_traced"`
		OpsKept   int    `json:"ops_kept"`
		Spans     []span `json:"spans"`
	}{workload, seed, t.ops, t.keptOps, t.kept}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// ---- wrappers: one per public seam ----

// tracedRunner is the cluster.Runner-shaped wrapper around Analyzer.Run.
type tracedRunner struct {
	t     *tracer
	inner cluster.Runner
	kind  string // names the span's Kind; the query's own name when empty
}

func (r tracedRunner) Run(ctx context.Context, q analyzer.Query) (*analyzer.Report, error) {
	ctx, sp := r.t.start(ctx, "analyzer.run")
	if sp.s.Kind = r.kind; r.kind == "" {
		sp.s.Kind = q.Name()
	}
	defer sp.end()
	return r.inner.Run(ctx, q)
}

// tracedDir wraps the analyzer.Directory seam: every pointer pull is an
// analyzer.dir_round span. It keeps the last batch it saw for the rungs.
type tracedDir struct {
	analyzer.Directory
	t    *tracer
	last *[]analyzer.SwitchEpochs
}

func (d tracedDir) Hosts(ctx context.Context, sw netsim.NodeID, epochs simtime.EpochRange) ([]netsim.IPv4, error) {
	ctx, sp := d.t.start(ctx, "analyzer.dir_round")
	sp.s.N = 1
	defer sp.end()
	*d.last = []analyzer.SwitchEpochs{{Switch: sw, Epochs: epochs}}
	return d.Directory.Hosts(ctx, sw, epochs)
}

func (d tracedDir) HostsBatch(ctx context.Context, reqs []analyzer.SwitchEpochs) ([][]netsim.IPv4, []error) {
	ctx, sp := d.t.start(ctx, "analyzer.dir_round")
	sp.s.N = len(reqs)
	defer sp.end()
	*d.last = reqs
	return d.Directory.HostsBatch(ctx, reqs)
}

// hostRounds is what the host-backend wrapper saw last, per round kind: the
// arguments the rungs replay against the agents directly.
type hostRounds struct {
	headersHosts   []netsim.IPv4
	headersQueries []hostagent.HeadersQuery
	topkHosts      []netsim.IPv4
	topkSwitch     netsim.NodeID
	topkK          int
	sizesHosts     []netsim.IPv4
	sizesSwitch    netsim.NodeID
}

// tracedHosts wraps the analyzer.HostBackend seam: every per-host round and
// single-host probe is an analyzer.host_round span.
type tracedHosts struct {
	inner analyzer.HostBackend
	t     *tracer
	last  *hostRounds
}

func (h tracedHosts) round(ctx context.Context, hosts int) (context.Context, *live) {
	ctx, sp := h.t.start(ctx, "analyzer.host_round")
	sp.s.N = hosts
	return ctx, sp
}

func (h tracedHosts) HeadersRound(ctx context.Context, workers int, hosts []netsim.IPv4, queries []hostagent.HeadersQuery) ([][]hostagent.HeadersAnswer, int, error) {
	ctx, sp := h.round(ctx, len(hosts))
	defer sp.end()
	h.last.headersHosts, h.last.headersQueries = hosts, queries
	return h.inner.HeadersRound(ctx, workers, hosts, queries)
}

func (h tracedHosts) TopKRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID, k int) ([][]hostagent.FlowBytes, int, error) {
	ctx, sp := h.round(ctx, len(hosts))
	defer sp.end()
	h.last.topkHosts, h.last.topkSwitch, h.last.topkK = hosts, sw, k
	return h.inner.TopKRound(ctx, workers, hosts, sw, k)
}

func (h tracedHosts) FlowSizesRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID) ([][]hostagent.FlowSize, int, error) {
	ctx, sp := h.round(ctx, len(hosts))
	defer sp.end()
	h.last.sizesHosts, h.last.sizesSwitch = hosts, sw
	return h.inner.FlowSizesRound(ctx, workers, hosts, sw)
}

func (h tracedHosts) Priority(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (uint8, bool) {
	ctx, sp := h.round(ctx, 1)
	defer sp.end()
	return h.inner.Priority(ctx, ip, flow)
}

func (h tracedHosts) Record(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (*flowrec.Record, bool) {
	ctx, sp := h.round(ctx, 1)
	defer sp.end()
	return h.inner.Record(ctx, ip, flow)
}

// tracedTransport is the http.RoundTripper wrapper. Under a span it records
// name (rpc.roundtrip on the analyzer's pooled client, bench.http on the
// operator's client) from the request's start to the response body's EOF,
// and hands the span to the server in X-Bench-Span.
type tracedTransport struct {
	t     *tracer
	inner http.RoundTripper
	name  string
}

func (rt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return rt.inner.RoundTrip(req)
	}
	s := span{ID: rt.t.nextID.Add(1), Parent: ref.parent, Op: ref.op, Name: rt.name,
		Start: rt.t.now(), ReqBytes: req.ContentLength}
	switch {
	case strings.HasPrefix(req.URL.Path, "/switches/"):
		s.Kind = "switch"
	case strings.HasPrefix(req.URL.Path, "/hosts/"):
		s.Kind = "host"
	}
	// A RoundTripper must not modify the caller's request: send a shallow
	// copy with its own header map.
	out := *req
	out.Header = req.Header.Clone()
	out.Header.Set(benchHeader, spanRef{op: ref.op, parent: s.ID}.header())

	var msg *message
	if rt.t.capturing.Load() && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			raw, _ := io.ReadAll(body)
			msg = &message{path: req.URL.Path, req: raw}
		}
	}

	resp, err := rt.inner.RoundTrip(&out)
	if err != nil {
		s.End = rt.t.now()
		rt.t.add(s)
		return nil, err
	}
	s.HeadersAt = rt.t.now()
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: rt.t, s: s, msg: msg}
	return resp, nil
}

// tracedBody times the read of a response body to EOF and counts its bytes.
type tracedBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	msg  *message
	done bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.RespBytes += int64(n)
	if b.msg != nil {
		b.msg.resp = append(b.msg.resp, p[:n]...)
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *tracedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.s.End = b.t.now()
	b.t.mu.Lock()
	b.t.cur = append(b.t.cur, b.s)
	if b.msg != nil {
		b.t.captured = append(b.t.captured, *b.msg)
	}
	b.t.mu.Unlock()
}

// middleware records name around next for every request that carries
// X-Bench-Span, and runs the handler under the new span.
func (t *tracer) middleware(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := parseSpanRef(r.Header.Get(benchHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		ctx := context.WithValue(r.Context(), spanKey{}, ref)
		ctx, sp := t.start(ctx, name)
		next.ServeHTTP(w, r.WithContext(ctx))
		sp.end()
	})
}

// server is one HTTP server on a fresh loopback listener, stoppable and
// waitable. count, when set, counts the connections it accepts.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler, count *atomic.Int64) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("benchmark: loopback listen: %w", err)
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	if count != nil {
		s.srv.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				count.Add(1)
			}
		}
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to end.
func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// wireBodies returns fresh values of the exported wire types one exchange
// is decoded into: rpc's for the agents' endpoints, cluster's for /diagnose.
// ok is false for a path the benchmark's workloads never call.
func wireBodies(path string) (req, resp any, ok bool) {
	switch path[strings.LastIndexByte(path, '/'):] {
	case "/pointers":
		return &rpc.PointersRequest{}, &rpc.PointersResponse{}, true
	case "/headers-batch":
		return &rpc.HeadersBatchRequest{}, &rpc.HeadersBatchResponse{}, true
	case "/topk":
		return &rpc.TopKRequest{}, &[]hostagent.FlowBytes{}, true
	case "/flowsizes":
		return &rpc.FlowSizesRequest{}, &[]hostagent.FlowSize{}, true
	case "/priority":
		return &rpc.PriorityRequest{}, &rpc.PriorityResponse{}, true
	case "/record":
		return &rpc.RecordRequest{}, &rpc.RecordResponse{}, true
	case "/diagnose":
		return &cluster.QueryEnvelope{}, &cluster.DiagnoseResponse{}, true
	}
	return nil, nil, false
}

// jsonRung re-decodes and re-encodes every body one operation moved, as the
// program does on the sending and the receiving side, and returns the
// median cost of each direction per operation in microseconds.
func jsonRung(quick bool, msgs []message) (encodeUs, decodeUs float64, err error) {
	reps := 21
	if quick {
		reps = 3
	}
	var enc, dec []float64
	for r := 0; r < reps; r++ {
		values := make([]any, 0, 2*len(msgs))
		t0 := wallNow()
		for _, m := range msgs {
			req, resp, ok := wireBodies(m.path)
			if !ok {
				return 0, 0, fmt.Errorf("benchmark: no wire type for %s", m.path)
			}
			if err := json.Unmarshal(m.req, req); err != nil {
				return 0, 0, fmt.Errorf("benchmark: decode %s request: %w", m.path, err)
			}
			if err := json.Unmarshal(bytes.TrimSpace(m.resp), resp); err != nil {
				return 0, 0, fmt.Errorf("benchmark: decode %s response: %w", m.path, err)
			}
			values = append(values, req, resp)
		}
		t1 := wallNow()
		for _, v := range values {
			if _, err := json.Marshal(v); err != nil {
				return 0, 0, err
			}
		}
		t2 := wallNow()
		dec = append(dec, float64(t1.Sub(t0))/1e3)
		enc = append(enc, float64(t2.Sub(t1))/1e3)
	}
	return median(enc), median(dec), nil
}
