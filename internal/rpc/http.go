package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"switchpointer/internal/bitset"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/mph"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/switchagent"
	"switchpointer/internal/trace"
)

// This file is the real-network binding of the agent query interfaces:
// JSON over HTTP via net/http, replacing the paper's flask microframework.
// Handlers must only be served while the simulation engine is idle (the
// simulated testbed is single-threaded); in deployments the agents would own
// their state behind these handlers directly.
//
// Every JSON exchange of the service plane — the agent routes below, and
// cluster's /diagnose and /stats, statesync's /healthz, the /traces
// clients — goes through one of two shapes, so there is exactly one place
// to change the codec, batch a round, type a failure or observe a request:
//
//   - Endpoint[Req, Resp] is the server: method check, bounded body read,
//     decode, the route's body, the traced child span, error → status,
//     encode. A route is its body and nothing else.
//   - (*HTTPClient).Call is the client: POST (GET without a request value),
//     per-host timeout, X-SP-Trace, non-200 → *StatusError, bounded decode,
//     drain for keep-alive. A client method is its URL and its two types.
//
// Deliberately not on them, because they are not JSON exchanges: the binary
// snapshots (host /snapshot segments, read frame by frame by BootstrapStore;
// the switch /snapshot, for BootstrapSwitch), cluster.WaitReady's poll (any
// 200 counts, JSON or not), the Prometheus text at /metrics and its spctl
// scrape, and /traces' server side (trace.FlightRecorder.Handler — rpc
// imports trace, so it cannot call back). They share AllowMethod where they
// check a method. Records cross both kinds in one codec: the snapshots'
// frames and the /headers-batch and /record answers all carry flowrec
// segments — inside the JSON routes as a []byte field, which encoding/json
// writes as base64 — never records as JSON objects. encoding/json writes
// every answer and reads every one but /headers-batch's: the host's own
// body for that route is read in one pass, straight to its segments
// (HeadersBatchResponse.decodeWire), and any other body through
// encoding/json, so the route accepts and decodes what encoding/json does.
// Every arriving segment is checked once, by one of the codec's fuzzed,
// bounded readers: a /headers-batch answer by the validating walk
// (flowrec.ValidateSegment), after which the analyzer reads it in place
// (flowrec.Cursor); a /record answer or a snapshot frame, where a whole
// record is the point, by the decode that makes its records.

// HeadersRequest asks a host for records matching (switch, epoch range).
// Flows, when non-empty, restricts the answer to those flow keys and lets
// the host's cold-tier manifest index skip segments that cannot contain
// any of them.
type HeadersRequest struct {
	Switch  netsim.NodeID    `json:"switch"`
	EpochLo simtime.Epoch    `json:"epoch_lo"`
	EpochHi simtime.Epoch    `json:"epoch_hi"`
	Flows   []netsim.FlowKey `json:"flows,omitempty"`
}

// HeadersResponse answers a HeadersRequest: the matching records plus the
// host's cold read-back accounting (flushed segments decoded / records
// scanned past the hot window — zero when the window was answered entirely
// from the resident set). ColdSkippedByIndex counts epoch-overlapping
// segments the manifest index excluded without decoding; TieredSegments
// counts matching segments whose payloads were tiered out of cold storage
// (data the answer honestly does not include). It is hostagent.HeadersAnswer
// on the wire: Segment is one flowrec segment of the records in answer order
// (base64 in the JSON), the codec disk and /snapshot use.
type HeadersResponse struct {
	Segment            []byte `json:"segment"`
	ColdSegments       int    `json:"cold_segments,omitempty"`
	ColdRecords        int    `json:"cold_records,omitempty"`
	ColdReturned       int    `json:"cold_returned,omitempty"`
	ColdSkippedByIndex int    `json:"cold_skipped_by_index,omitempty"`
	TieredSegments     int    `json:"tiered_segments,omitempty"`
}

// HeadersBatchRequest asks a host to answer several header queries in one
// request — the per-round form: a contention alert carries one query per
// alert tuple, and batching them means one HTTP round trip per host per
// round and one pass over the host's cold segments (hostagent.AnswerHeaders)
// instead of one per tuple.
type HeadersBatchRequest struct {
	Queries []HeadersRequest `json:"queries"`
}

// HeadersBatchResponse answers a HeadersBatchRequest, one answer per query
// in order. On the host the answers' segments share one pooled buffer,
// which Endpoint gives back once it has written the answer. On the client
// Call reads the body the host's encoding/json wrote in one pass, every
// segment decoded into one slab of the response's own (decodeWire); any
// other body goes through json.Unmarshal.
type HeadersBatchResponse struct {
	Answers []HeadersResponse `json:"answers"`

	pooled *[]byte // the host's answer buffer; nil on the client
}

// release gives the buffer the answers' segments share back to its pool;
// nothing of the response may be read after it.
func (br HeadersBatchResponse) release() { putAnswerBuf(br.pooled) }

// answerBufPool holds the buffers /headers-batch splices its answers onto.
var answerBufPool = sync.Pool{New: func() any { return new([]byte) }}

// putAnswerBuf pools buf, unless an outsized answer grew it past 1 MiB.
func putAnswerBuf(buf *[]byte) {
	if buf != nil && cap(*buf) <= 1<<20 {
		answerBufPool.Put(buf)
	}
}

// newHeadersBatchResponse is the host half of the answers' codec: each
// answer's segment, as hostagent.AnswerHeaders built it, ships as it is.
func newHeadersBatchResponse(answers []hostagent.HeadersAnswer) HeadersBatchResponse {
	resp := HeadersBatchResponse{Answers: make([]HeadersResponse, len(answers))}
	for i, ans := range answers {
		resp.Answers[i] = HeadersResponse{
			Segment:            ans.Segment,
			ColdSegments:       ans.ColdSegments,
			ColdRecords:        ans.ColdRecords,
			ColdReturned:       ans.ColdReturned,
			ColdSkippedByIndex: ans.ColdSkippedByIndex,
			TieredSegments:     ans.TieredSegments,
		}
	}
	return resp
}

// answers is the client half: it walks every answer's segment once
// (flowrec.ValidateSegment), naming the first that is not sound, and hands
// the segments on as they arrived, for the analyzer to read in place.
func (br *HeadersBatchResponse) answers() ([]hostagent.HeadersAnswer, error) {
	out := make([]hostagent.HeadersAnswer, len(br.Answers))
	for i, hr := range br.Answers {
		if _, err := flowrec.ValidateSegment(hr.Segment); err != nil {
			return nil, fmt.Errorf("rpc: headers batch answer %d: %w", i, err)
		}
		out[i] = hostagent.HeadersAnswer{
			Segment:            hr.Segment,
			ColdSegments:       hr.ColdSegments,
			ColdRecords:        hr.ColdRecords,
			ColdReturned:       hr.ColdReturned,
			ColdSkippedByIndex: hr.ColdSkippedByIndex,
			TieredSegments:     hr.TieredSegments,
		}
	}
	return out, nil
}

// TopKRequest asks a host for its top-k flows through a switch.
type TopKRequest struct {
	Switch netsim.NodeID `json:"switch"`
	K      int           `json:"k"`
}

// FlowSizesRequest asks a host for flow sizes and egress links at a switch.
type FlowSizesRequest struct {
	Switch netsim.NodeID `json:"switch"`
}

// PriorityRequest asks a host for a flow's recorded DSCP priority.
type PriorityRequest struct {
	Flow netsim.FlowKey `json:"flow"`
}

// PriorityResponse is the answer to a PriorityRequest.
type PriorityResponse struct {
	Priority uint8 `json:"priority"`
	Known    bool  `json:"known"`
}

// RecordRequest asks a host for one flow's full record (the cascade
// procedure's synthetic-alert source).
type RecordRequest struct {
	Flow netsim.FlowKey `json:"flow"`
}

// RecordResponse is the answer to a RecordRequest: when Known, Segment is a
// flowrec segment holding the one record.
type RecordResponse struct {
	Segment []byte `json:"segment,omitempty"`
	Known   bool   `json:"known"`
}

// PointersRequest asks a switch for its pointer union over an epoch range.
type PointersRequest struct {
	EpochLo simtime.Epoch `json:"epoch_lo"`
	EpochHi simtime.Epoch `json:"epoch_hi"`
}

// MPHRequest installs a freshly built minimal perfect hash on a switch —
// the wire form of the analyzer's §4.3 distribution responsibility.
type MPHRequest struct {
	// Table is the table's MarshalBinary bytes, standard base64 in JSON.
	Table []byte `json:"table_b64"`
}

// SwitchSnapshotContentType marks a switch /snapshot body: the bytes of
// switchagent.Agent.Snapshot, which a replica hands to Agent.Restore.
const SwitchSnapshotContentType = "application/x-switchpointer-switch-snapshot"

// PointersResponse carries the pointer bitmap and how it was satisfied.
type PointersResponse struct {
	// Hosts is the bitmap's MarshalBinary bytes, standard base64 in JSON.
	Hosts   []byte `json:"hosts_b64"`
	Level   int    `json:"level"`
	Slots   int    `json:"slots"`
	Covered bool   `json:"covered"`
	Source  string `json:"source"`
}

// Decode unpacks the bitmap.
func (pr *PointersResponse) Decode() (*bitset.Set, error) {
	var s bitset.Set
	if err := s.UnmarshalBinary(pr.Hosts); err != nil {
		return nil, err
	}
	return &s, nil
}

// Request and answer size limits. Every Endpoint bounds the body it reads
// and every Call the answer it decodes by one of these.
const (
	// LimitRequest bounds query bodies, /diagnose envelopes and the small
	// operator documents (/stats, /healthz).
	LimitRequest = 1 << 20
	// LimitReport bounds /diagnose and /traces answers.
	LimitReport = 8 << 20
	// LimitRecords bounds everything that carries flow records or agent
	// state: host query answers, switch /snapshot.
	LimitRecords = 64 << 20
)

// Empty is the request type of a GET route (and the answer of a route with
// nothing to say): an Endpoint whose Req is Empty requires GET and reads no
// body, every other Endpoint requires POST — the server mirror of Call's
// "POST when req != nil".
type Empty struct{}

// StatusError is a non-200 exchange. Call returns one (URL set) for every
// answer that is not 200, so callers tell 404 from 429 from 503 with
// errors.As instead of parsing messages; an Endpoint body returns one (no
// URL; see BadRequest) to pick the status its failure answers with.
type StatusError struct {
	URL  string
	Code int
	Body string
}

func (e *StatusError) Error() string {
	if e.URL == "" {
		return e.Body
	}
	return fmt.Sprintf("rpc: %s: status %d: %s", e.URL, e.Code, e.Body)
}

// BadRequest marks err as the caller's fault: the Endpoint answers 400.
func BadRequest(err error) error {
	return &StatusError{Code: http.StatusBadRequest, Body: err.Error()}
}

// Spans is where one agent handler's Endpoints leave their child spans: the
// daemon's flight recorder plus the (role, label) that name the agent. One
// value is shared by all of a handler's routes; a nil *Spans (or a nil
// recorder) records nothing.
type Spans struct {
	Flight      *trace.FlightRecorder
	Role, Label string
}

// record emits a virtual-instant child span when the request carries trace
// context: the span sits at the analyzer's virtual send time, parents under
// the phase ordinal the round will charge, and derives its ID from (parent,
// role, label, endpoint) so the same diagnosis yields the same tree on
// every execution path.
func (sp *Spans) record(r *http.Request, name string, attrs []trace.Attr) {
	if sp == nil || sp.Flight == nil {
		return
	}
	rc, ok := trace.ParseRemote(r.Header.Get(trace.Header))
	if !ok {
		return
	}
	sp.Flight.Record(rc.TraceID, trace.Span{
		ID:     rc.Parent + "." + sp.Role + ":" + sp.Label + ":" + name,
		Parent: rc.Parent,
		Name:   name,
		Role:   sp.Role,
		Start:  rc.At,
		End:    rc.At,
		Attrs:  attrs,
	})
}

// Endpoint is the one server shape: it checks the method (GET when Req is
// Empty, else POST), reads at most limit body bytes, decodes them into a
// Req, runs body, records the traced child span named name under sp with
// the attributes body returned, and encodes the answer. A body picks its
// failure's status by returning a *StatusError bare (BadRequest); any other
// error — a wrapped *StatusError from a downstream Call included — is this
// server's failure, 500. Nothing is recorded for a failed request. An answer
// that holds pooled memory (HeadersBatchResponse) is released once its body
// is written; a body that fails releases what it took itself.
func Endpoint[Req, Resp any](sp *Spans, name string, limit int64, body func(ctx context.Context, req *Req) (Resp, []trace.Attr, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !readRequest(w, r, limit, &req) {
			return
		}
		resp, attrs, err := body(r.Context(), &req)
		if err != nil {
			code := http.StatusInternalServerError
			if se, ok := err.(*StatusError); ok {
				code = se.Code
			}
			http.Error(w, err.Error(), code)
			return
		}
		sp.record(r, name, attrs)
		v := any(resp) // boxed once: writeJSON and the release share it
		writeJSON(w, v)
		if rel, ok := v.(releaser); ok {
			rel.release()
		}
	})
}

// releaser is an answer that holds pooled memory until it has been written.
type releaser interface{ release() }

// AllowMethod answers 405 and reports false unless r uses method — the one
// method check, shared with the binary routes that are not Endpoints.
func AllowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		http.Error(w, method+" required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// readRequest and writeJSON are the codec: the only places a request body
// becomes a value and a value an answer. They are deliberately not generic —
// an encoder built inside Endpoint's instantiated closure escapes, one
// allocation per request.
func readRequest(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if _, get := v.(*Empty); get {
		return AllowMethod(w, r, http.MethodGet)
	}
	if !AllowMethod(w, r, http.MethodPost) {
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// NewHostHandler exposes a host agent's query executors over HTTP. Requests
// carrying an X-SP-Trace header leave child spans (records returned, cold
// decode counts) in fr under the daemon's label (its host IP); a nil fr
// records nothing.
func NewHostHandler(a *hostagent.Agent, label string, fr *trace.FlightRecorder) http.Handler {
	sp := &Spans{Flight: fr, Role: "host", Label: label}
	mux := http.NewServeMux()
	mux.Handle("/headers-batch", Endpoint(sp, "headers-batch", LimitRequest,
		func(ctx context.Context, req *HeadersBatchRequest) (HeadersBatchResponse, []trace.Attr, error) {
			qs := make([]hostagent.HeadersQuery, len(req.Queries))
			for i, q := range req.Queries {
				qs[i] = hostagent.HeadersQuery{Switch: q.Switch, Epochs: simtime.EpochRange{Lo: q.EpochLo, Hi: q.EpochHi}, Flows: q.Flows}
			}
			buf := answerBufPool.Get().(*[]byte)
			answers, seg, err := a.AnswerHeaders(ctx, qs, (*buf)[:0])
			*buf = seg
			if err != nil {
				putAnswerBuf(buf)
				return HeadersBatchResponse{}, nil, err
			}
			records, coldSegments, coldReturned := 0, 0, 0
			for _, ans := range answers {
				n, _ := flowrec.SegmentRecords(ans.Segment)
				records += n
				coldSegments += ans.ColdSegments
				coldReturned += ans.ColdReturned
			}
			resp := newHeadersBatchResponse(answers)
			resp.pooled = buf // Endpoint releases it once the answer is written
			return resp, []trace.Attr{
				{Key: "records", Value: strconv.Itoa(records)},
				{Key: "cold_segments", Value: strconv.Itoa(coldSegments)},
				{Key: "cold_returned", Value: strconv.Itoa(coldReturned)},
			}, nil
		}))
	mux.Handle("/topk", Endpoint(sp, "topk", LimitRequest,
		func(ctx context.Context, req *TopKRequest) ([]hostagent.FlowBytes, []trace.Attr, error) {
			flows := a.QueryTopK(ctx, req.Switch, req.K)
			return flows, []trace.Attr{{Key: "flows", Value: strconv.Itoa(len(flows))}}, nil
		}))
	mux.Handle("/flowsizes", Endpoint(sp, "flowsizes", LimitRequest,
		func(ctx context.Context, req *FlowSizesRequest) ([]hostagent.FlowSize, []trace.Attr, error) {
			sizes := a.QueryFlowSizes(ctx, req.Switch)
			return sizes, []trace.Attr{{Key: "flows", Value: strconv.Itoa(len(sizes))}}, nil
		}))
	mux.Handle("/priority", Endpoint(sp, "priority", LimitRequest,
		func(ctx context.Context, req *PriorityRequest) (PriorityResponse, []trace.Attr, error) {
			prio, known := a.QueryPriority(ctx, req.Flow)
			return PriorityResponse{Priority: prio, Known: known},
				[]trace.Attr{{Key: "known", Value: strconv.FormatBool(known)}}, nil
		}))
	mux.Handle("/record", Endpoint(sp, "record", LimitRequest,
		func(ctx context.Context, req *RecordRequest) (RecordResponse, []trace.Attr, error) {
			seg, known, err := a.AnswerRecord(ctx, req.Flow)
			if err != nil {
				return RecordResponse{}, nil, err
			}
			return RecordResponse{Known: known, Segment: seg}, []trace.Attr{{Key: "known", Value: strconv.FormatBool(known)}}, nil
		}))
	return mux
}

// NewSwitchHandler exposes a switch agent's pointer pulls over HTTP, traced
// like NewHostHandler under the daemon's label (its switch ID): a pull's
// child span carries level, slot count, coverage and source.
// net/http serves requests concurrently but switchagent.Agent is not
// concurrency-safe (pulls rotate epochs and mutate accounting), so the
// handler serializes agent access — the server-side twin of the per-switch
// pull mutexes in analyzer.MemoryDirectory. Pulls against DIFFERENT
// switches (separate handlers) still proceed in parallel, which is what
// the batched round relies on.
func NewSwitchHandler(a *switchagent.Agent, label string, fr *trace.FlightRecorder) http.Handler {
	sp := &Spans{Flight: fr, Role: "switch", Label: label}
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.Handle("/pointers", Endpoint(sp, "pointers", LimitRequest,
		func(_ context.Context, req *PointersRequest) (PointersResponse, []trace.Attr, error) {
			mu.Lock()
			res := a.PullPointers(simtime.EpochRange{Lo: req.EpochLo, Hi: req.EpochHi})
			mu.Unlock()
			raw, err := res.Hosts.MarshalBinary()
			if err != nil {
				return PointersResponse{}, nil, err
			}
			return PointersResponse{
					Hosts:   raw,
					Level:   res.Info.Level,
					Slots:   res.Info.Slots,
					Covered: res.Info.Covered,
					Source:  res.Source,
				}, []trace.Attr{
					{Key: "level", Value: strconv.Itoa(res.Info.Level)},
					{Key: "slots", Value: strconv.Itoa(res.Info.Slots)},
					{Key: "covered", Value: strconv.FormatBool(res.Info.Covered)},
					{Key: "source", Value: res.Source},
				}, nil
		}))
	mux.Handle("/mph", Endpoint(sp, "mph", LimitRequest,
		func(_ context.Context, req *MPHRequest) (Empty, []trace.Attr, error) {
			var table mph.Table
			if err := table.UnmarshalBinary(req.Table); err != nil {
				return Empty{}, nil, BadRequest(err)
			}
			mu.Lock()
			a.InstallMPH(&table)
			mu.Unlock()
			return Empty{}, nil, nil
		}))
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if !AllowMethod(w, r, http.MethodGet) {
			return
		}
		mu.Lock()
		body := a.Snapshot()
		mu.Unlock()
		sp.record(r, "snapshot", nil)
		w.Header().Set("Content-Type", SwitchSnapshotContentType)
		w.Write(body) //nolint:errcheck // a cut body fails the puller's decode
	})
	return mux
}

// HTTPClient is the analyzer-side client for the HTTP binding.
//
// Concurrency contract: an HTTPClient is goroutine-safe — all query methods
// may be called concurrently (http.Client and http.Transport are themselves
// concurrent-safe), which is what the analyzer's RemoteHosts relies on to
// fan a round out over many host agents at once. The flask deployment the paper measures
// opens one connection per server per query (§6.2's sequential bottleneck);
// NewPooledHTTPClient is the corresponding fix: a shared, keep-alive
// http.Transport whose idle pool spans query rounds, so repeat rounds skip
// connection initiation entirely — the real-network twin of the cost model's
// Pooled+Parallel accounting.
//
// Lock and cancellation contract: every HTTPClient method (except
// CloseIdleConnections) is a network round, so none is called while a
// sync.Mutex/RWMutex is held — clone the state under the lock and send
// outside it — and exported callers in the service-plane packages thread
// their context.Context down into these methods rather than severing the
// chain with context.Background. internal/cluster's contract tests check
// both: TestCancelReachesTheWire cancels each method and each exported
// caller mid-request, and TestDistributeInstallsOverlap fails when installs
// wait behind a lock.
type HTTPClient struct {
	HTTP *http.Client

	// PerHostTimeout bounds each single host interaction (connection +
	// request + response). Zero means no per-host bound; the round is then
	// limited only by the caller's context. A slow or dead host therefore
	// cannot stall a whole fan-out round beyond this bound.
	PerHostTimeout time.Duration
}

// NewHTTPClient returns a client using the given http.Client (or the default
// client when nil).
func NewHTTPClient(c *http.Client) *HTTPClient {
	if c == nil {
		c = http.DefaultClient
	}
	return &HTTPClient{HTTP: c}
}

// NewPooledHTTPClient returns a client over a dedicated pooled
// http.Transport tuned for analyzer fan-out: generous idle-connection
// limits so a 96-server query round keeps every connection alive for the
// next round, and a default per-host timeout so one dead agent cannot hang
// a diagnosis.
func NewPooledHTTPClient() *HTTPClient {
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     90 * time.Second,
	}
	return &HTTPClient{
		HTTP:           &http.Client{Transport: tr},
		PerHostTimeout: 5 * time.Second,
	}
}

// CloseIdleConnections drops pooled keep-alive connections.
func (c *HTTPClient) CloseIdleConnections() { c.HTTP.CloseIdleConnections() }

// Call is the one client shape: it POSTs req as JSON (GETs when req is nil)
// under the per-host timeout, forwards ctx's outbound trace context as
// X-SP-Trace, turns every non-200 answer into a *StatusError, and decodes at
// most limit answer bytes into resp (nil discards the answer): through
// json.Unmarshal, or for a *HeadersBatchResponse through its one-pass
// reader (decodeWire), which accepts and decodes what json.Unmarshal does
// and keeps none of the pooled answer buffer.
func (c *HTTPClient) Call(ctx context.Context, url string, req, resp any, limit int64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.PerHostTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.PerHostTimeout)
		defer cancel()
	}
	method, body := http.MethodGet, io.Reader(nil)
	if req != nil {
		raw, err := json.Marshal(req)
		if err != nil {
			return fmt.Errorf("rpc: marshal: %w", err)
		}
		method, body = http.MethodPost, bytes.NewReader(raw)
	}
	httpReq, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return fmt.Errorf("rpc: request %s: %w", url, err)
	}
	if req != nil {
		httpReq.Header.Set("Content-Type", "application/json")
	}
	if rc, ok := trace.RemoteFromContext(ctx); ok {
		httpReq.Header.Set(trace.Header, rc.Encode())
	}
	httpResp, err := c.HTTP.Do(httpReq)
	if err != nil {
		return fmt.Errorf("rpc: %s %s: %w", method, url, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return &StatusError{URL: url, Code: httpResp.StatusCode, Body: string(bytes.TrimSpace(msg))}
	}
	// Reading the bounded answer to EOF is also what lets the transport see
	// the response end and return the connection to the idle pool — otherwise
	// every chunked response kills its keep-alive connection and fan-out
	// rounds re-pay connection setup.
	if resp == nil {
		io.Copy(io.Discard, io.LimitReader(httpResp.Body, limit)) //nolint:errcheck
		return nil
	}
	// Decode from memory, not through a json.Decoder on the socket: its
	// buffer doubles to wherever the reads of a large answer happen to break,
	// so the bytes allocated per call would depend on timing.
	buf := answerPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= 1<<20 { // keep no /snapshot-sized buffer alive
			buf.Reset()
			answerPool.Put(buf)
		}
	}()
	_, err = buf.ReadFrom(io.LimitReader(httpResp.Body, limit+1))
	switch {
	case int64(buf.Len()) > limit:
		err = fmt.Errorf("answer over %d bytes", limit)
	case err == nil:
		if br, ok := resp.(*HeadersBatchResponse); ok {
			err = br.decodeWire(buf.Bytes())
		} else {
			err = json.Unmarshal(buf.Bytes(), resp)
		}
	}
	if err != nil {
		return fmt.Errorf("rpc: decode %s: %w", url, err)
	}
	return nil
}

// answerPool holds Call's answer buffers; one that grew past 1 MiB is dropped
// instead of returned, so a single /snapshot cannot pin LimitRecords bytes.
var answerPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// QueryHeadersBatch answers several header queries against one host in a
// single request (POST /headers-batch), one answer per query in order.
func (c *HTTPClient) QueryHeadersBatch(ctx context.Context, baseURL string, qs []hostagent.HeadersQuery) ([]hostagent.HeadersAnswer, error) {
	req := HeadersBatchRequest{Queries: make([]HeadersRequest, len(qs))}
	for i, q := range qs {
		req.Queries[i] = HeadersRequest{Switch: q.Switch, EpochLo: q.Epochs.Lo, EpochHi: q.Epochs.Hi, Flows: q.Flows}
	}
	var out HeadersBatchResponse
	if err := c.Call(ctx, baseURL+"/headers-batch", req, &out, LimitRecords); err != nil {
		return nil, err
	}
	if len(out.Answers) != len(qs) {
		return nil, fmt.Errorf("rpc: headers batch answered %d of %d queries", len(out.Answers), len(qs))
	}
	return out.answers()
}

// QueryTopK fetches a host's top-k flows through a switch.
func (c *HTTPClient) QueryTopK(ctx context.Context, baseURL string, sw netsim.NodeID, k int) ([]hostagent.FlowBytes, error) {
	var out []hostagent.FlowBytes
	err := c.Call(ctx, baseURL+"/topk", TopKRequest{Switch: sw, K: k}, &out, LimitRecords)
	return out, err
}

// QueryFlowSizes fetches flow sizes + egress links at a switch from a host.
func (c *HTTPClient) QueryFlowSizes(ctx context.Context, baseURL string, sw netsim.NodeID) ([]hostagent.FlowSize, error) {
	var out []hostagent.FlowSize
	err := c.Call(ctx, baseURL+"/flowsizes", FlowSizesRequest{Switch: sw}, &out, LimitRecords)
	return out, err
}

// QueryPriority fetches a flow's priority from a host.
func (c *HTTPClient) QueryPriority(ctx context.Context, baseURL string, flow netsim.FlowKey) (uint8, bool, error) {
	var out PriorityResponse
	err := c.Call(ctx, baseURL+"/priority", PriorityRequest{Flow: flow}, &out, LimitRecords)
	return out.Priority, out.Known, err
}

// QueryRecord fetches one flow's full record from its destination host.
func (c *HTTPClient) QueryRecord(ctx context.Context, baseURL string, flow netsim.FlowKey) (*flowrec.Record, bool, error) {
	var out RecordResponse
	if err := c.Call(ctx, baseURL+"/record", RecordRequest{Flow: flow}, &out, LimitRecords); err != nil || !out.Known {
		return nil, false, err
	}
	recs, err := flowrec.DecodeSegment(out.Segment)
	if err == nil && len(recs) != 1 {
		err = fmt.Errorf("%d records, want 1", len(recs))
	}
	if err != nil {
		return nil, false, fmt.Errorf("rpc: record answer: %w", err)
	}
	return recs[0], true, nil
}

// InstallMPH distributes a minimal perfect hash table to the switch at
// baseURL (the §4.3 membership-change push).
func (c *HTTPClient) InstallMPH(ctx context.Context, baseURL string, t *mph.Table) error {
	raw, err := t.MarshalBinary()
	if err != nil {
		return fmt.Errorf("rpc: marshal mph: %w", err)
	}
	return c.Call(ctx, baseURL+"/mph", MPHRequest{Table: raw}, nil, LimitRequest)
}

// PullPointers fetches a switch's pointer union for an epoch range.
func (c *HTTPClient) PullPointers(ctx context.Context, baseURL string, epochs simtime.EpochRange) (*bitset.Set, PointersResponse, error) {
	var out PointersResponse
	if err := c.Call(ctx, baseURL+"/pointers", PointersRequest{EpochLo: epochs.Lo, EpochHi: epochs.Hi}, &out, LimitRecords); err != nil {
		return nil, out, err
	}
	bits, err := out.Decode()
	return bits, out, err
}
