package rpc

import (
	"bytes"
	"context"
	"encoding/base64"
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
	"switchpointer/internal/topo"
	"switchpointer/internal/trace"
)

// This file is the real-network binding of the agent query interfaces:
// JSON over HTTP via net/http, replacing the paper's flask microframework.
// Handlers must only be served while the simulation engine is idle (the
// simulated testbed is single-threaded); in deployments the agents would own
// their state behind these handlers directly.

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
// (data the answer honestly does not include).
type HeadersResponse struct {
	Records            []*flowrec.Record `json:"records"`
	ColdSegments       int               `json:"cold_segments,omitempty"`
	ColdRecords        int               `json:"cold_records,omitempty"`
	ColdReturned       int               `json:"cold_returned,omitempty"`
	ColdSkippedByIndex int               `json:"cold_skipped_by_index,omitempty"`
	TieredSegments     int               `json:"tiered_segments,omitempty"`
}

// HeadersBatchRequest asks a host to answer several header queries in one
// request — the per-round form: a contention alert carries one query per
// alert tuple, and batching them means one HTTP round trip per host per
// round and one cold-segment decode pass (hostagent.QueryHeadersMulti)
// instead of one per tuple.
type HeadersBatchRequest struct {
	Queries []HeadersRequest `json:"queries"`
}

// HeadersBatchResponse answers a HeadersBatchRequest, one answer per query
// in order.
type HeadersBatchResponse struct {
	Answers []HeadersResponse `json:"answers"`
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

// RecordResponse is the answer to a RecordRequest.
type RecordResponse struct {
	Record *flowrec.Record `json:"record,omitempty"`
	Known  bool            `json:"known"`
}

// PointersRequest asks a switch for its pointer union over an epoch range.
type PointersRequest struct {
	EpochLo simtime.Epoch `json:"epoch_lo"`
	EpochHi simtime.Epoch `json:"epoch_hi"`
}

// MPHRequest installs a freshly built minimal perfect hash on a switch —
// the wire form of the analyzer's §4.3 distribution responsibility.
type MPHRequest struct {
	TableB64 string `json:"table_b64"`
}

// SwitchSnapshotResponse is the switch half of a state-sync snapshot
// (GET /snapshot on a switch handler): the live pointer structure, the
// pushed control-store history, and the installed MPH, each in its own
// binary encoding. A bootstrapping daemon pulls one from its peer and
// applies it to a local agent of identical geometry so subsequent pointer
// pulls answer byte-identically to the source's.
type SwitchSnapshotResponse struct {
	PointerB64 string `json:"pointer_b64"`
	ControlB64 string `json:"control_b64"`
	MPHB64     string `json:"mph_b64,omitempty"`
}

// Apply restores the snapshot into a local switch agent: pointer structure,
// control store, and (when the snapshot carries one) the MPH.
func (sr *SwitchSnapshotResponse) Apply(a *switchagent.Agent) error {
	ptr, err := base64.StdEncoding.DecodeString(sr.PointerB64)
	if err != nil {
		return fmt.Errorf("rpc: switch snapshot: %w", err)
	}
	if err := a.RestorePointerSnapshot(ptr); err != nil {
		return err
	}
	ctrl, err := base64.StdEncoding.DecodeString(sr.ControlB64)
	if err != nil {
		return fmt.Errorf("rpc: switch snapshot: %w", err)
	}
	if err := a.RestoreControlStoreSnapshot(ctrl); err != nil {
		return err
	}
	if sr.MPHB64 != "" {
		raw, err := base64.StdEncoding.DecodeString(sr.MPHB64)
		if err != nil {
			return fmt.Errorf("rpc: switch snapshot: %w", err)
		}
		var table mph.Table
		if err := table.UnmarshalBinary(raw); err != nil {
			return err
		}
		a.InstallMPH(&table)
	}
	return nil
}

// PointersResponse carries the pointer bitmap and how it was satisfied.
type PointersResponse struct {
	HostsB64 string `json:"hosts_b64"`
	Level    int    `json:"level"`
	Slots    int    `json:"slots"`
	Covered  bool   `json:"covered"`
	Source   string `json:"source"`
	// Approx marks a sketch-backed answer: the bitmap is a candidate
	// superset of the touched hosts (never missing one). Omitted (false)
	// for exact backends, keeping the wire form identical to older peers.
	Approx bool `json:"approx,omitempty"`
}

// Decode unpacks the bitmap.
func (pr *PointersResponse) Decode() (*bitset.Set, error) {
	raw, err := base64.StdEncoding.DecodeString(pr.HostsB64)
	if err != nil {
		return nil, fmt.Errorf("rpc: pointer bitmap: %w", err)
	}
	var s bitset.Set
	if err := s.UnmarshalBinary(raw); err != nil {
		return nil, err
	}
	return &s, nil
}

// recordChild emits a virtual-instant child span into the daemon's flight
// recorder when the request carries trace context: the span sits at the
// analyzer's virtual send time, parents under the phase ordinal the round
// will charge, and derives its ID from (parent, role, label, endpoint) so
// the same diagnosis yields the same tree on every execution path.
func recordChild(fr *trace.FlightRecorder, role, label string, r *http.Request, name string, attrs ...trace.Attr) {
	if fr == nil {
		return
	}
	rc, ok := trace.ParseRemote(r.Header.Get(trace.Header))
	if !ok {
		return
	}
	fr.Record(rc.TraceID, trace.Span{
		ID:     rc.Parent + "." + role + ":" + label + ":" + name,
		Parent: rc.Parent,
		Name:   name,
		Role:   role,
		Start:  rc.At,
		End:    rc.At,
		Attrs:  attrs,
	})
}

// NewHostHandler exposes a host agent's query executors over HTTP.
func NewHostHandler(a *hostagent.Agent) http.Handler {
	return NewTracedHostHandler(a, "", nil)
}

// NewTracedHostHandler is NewHostHandler with a flight recorder: requests
// carrying an X-SP-Trace header additionally emit child spans (records
// returned, cold decode counts) under the daemon's label (its host IP).
func NewTracedHostHandler(a *hostagent.Agent, label string, fr *trace.FlightRecorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/headers", func(w http.ResponseWriter, r *http.Request) {
		var req HeadersRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		ans := a.QueryHeaders(r.Context(), hostagent.HeadersQuery{
			Switch: req.Switch,
			Epochs: simtime.EpochRange{Lo: req.EpochLo, Hi: req.EpochHi},
			Flows:  req.Flows,
		})
		recordChild(fr, "host", label, r, "headers",
			trace.Attr{Key: "records", Value: strconv.Itoa(len(ans.Records))},
			trace.Attr{Key: "cold_segments", Value: strconv.Itoa(ans.ColdSegments)},
			trace.Attr{Key: "cold_returned", Value: strconv.Itoa(ans.ColdReturned)})
		writeJSON(w, headersToWire(ans))
	})
	mux.HandleFunc("/headers-batch", func(w http.ResponseWriter, r *http.Request) {
		var req HeadersBatchRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		qs := make([]hostagent.HeadersQuery, len(req.Queries))
		for i, q := range req.Queries {
			qs[i] = hostagent.HeadersQuery{
				Switch: q.Switch,
				Epochs: simtime.EpochRange{Lo: q.EpochLo, Hi: q.EpochHi},
				Flows:  q.Flows,
			}
		}
		answers := a.QueryHeadersMulti(r.Context(), qs)
		resp := HeadersBatchResponse{Answers: make([]HeadersResponse, len(answers))}
		records, coldSegments, coldReturned := 0, 0, 0
		for i, ans := range answers {
			resp.Answers[i] = headersToWire(ans)
			records += len(ans.Records)
			coldSegments += ans.ColdSegments
			coldReturned += ans.ColdReturned
		}
		recordChild(fr, "host", label, r, "headers-batch",
			trace.Attr{Key: "records", Value: strconv.Itoa(records)},
			trace.Attr{Key: "cold_segments", Value: strconv.Itoa(coldSegments)},
			trace.Attr{Key: "cold_returned", Value: strconv.Itoa(coldReturned)})
		writeJSON(w, resp)
	})
	mux.HandleFunc("/topk", func(w http.ResponseWriter, r *http.Request) {
		var req TopKRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		flows := a.QueryTopK(r.Context(), req.Switch, req.K)
		recordChild(fr, "host", label, r, "topk",
			trace.Attr{Key: "flows", Value: strconv.Itoa(len(flows))})
		writeJSON(w, flows)
	})
	mux.HandleFunc("/flowsizes", func(w http.ResponseWriter, r *http.Request) {
		var req FlowSizesRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		sizes := a.QueryFlowSizes(r.Context(), req.Switch)
		recordChild(fr, "host", label, r, "flowsizes",
			trace.Attr{Key: "flows", Value: strconv.Itoa(len(sizes))})
		writeJSON(w, sizes)
	})
	mux.HandleFunc("/priority", func(w http.ResponseWriter, r *http.Request) {
		var req PriorityRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		prio, known := a.QueryPriority(r.Context(), req.Flow)
		recordChild(fr, "host", label, r, "priority",
			trace.Attr{Key: "known", Value: fmt.Sprintf("%v", known)})
		writeJSON(w, PriorityResponse{Priority: prio, Known: known})
	})
	mux.HandleFunc("/record", func(w http.ResponseWriter, r *http.Request) {
		var req RecordRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		rec, known := a.LookupRecord(r.Context(), req.Flow)
		recordChild(fr, "host", label, r, "record",
			trace.Attr{Key: "known", Value: fmt.Sprintf("%v", known)})
		writeJSON(w, RecordResponse{Record: rec, Known: known})
	})
	return mux
}

// NewSwitchHandler exposes a switch agent's pointer pulls over HTTP.
// net/http serves requests concurrently but switchagent.Agent is not
// concurrency-safe (pulls rotate epochs and mutate accounting), so the
// handler serializes agent access — the server-side twin of the per-switch
// pull mutexes in analyzer.MemoryDirectory. Pulls against DIFFERENT
// switches (separate handlers) still proceed in parallel, which is what
// the batched round relies on.
func NewSwitchHandler(a *switchagent.Agent) http.Handler {
	return NewTracedSwitchHandler(a, "", nil)
}

// NewTracedSwitchHandler is NewSwitchHandler with a flight recorder:
// pointer pulls carrying an X-SP-Trace header additionally emit child spans
// (level, slot count, approx flag) under the daemon's label (its switch ID).
func NewTracedSwitchHandler(a *switchagent.Agent, label string, fr *trace.FlightRecorder) http.Handler {
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("/pointers", func(w http.ResponseWriter, r *http.Request) {
		var req PointersRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		mu.Lock()
		res := a.PullPointers(simtime.EpochRange{Lo: req.EpochLo, Hi: req.EpochHi})
		mu.Unlock()
		raw, err := res.Hosts.MarshalBinary()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		recordChild(fr, "switch", label, r, "pointers",
			trace.Attr{Key: "level", Value: strconv.Itoa(res.Info.Level)},
			trace.Attr{Key: "slots", Value: strconv.Itoa(res.Info.Slots)},
			trace.Attr{Key: "covered", Value: fmt.Sprintf("%v", res.Info.Covered)},
			trace.Attr{Key: "source", Value: res.Source},
			trace.Attr{Key: "approx", Value: fmt.Sprintf("%v", !res.Exact)})
		writeJSON(w, PointersResponse{
			HostsB64: base64.StdEncoding.EncodeToString(raw),
			Level:    res.Info.Level,
			Slots:    res.Info.Slots,
			Covered:  res.Info.Covered,
			Source:   res.Source,
			Approx:   !res.Exact,
		})
	})
	mux.HandleFunc("/mph", func(w http.ResponseWriter, r *http.Request) {
		var req MPHRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		raw, err := base64.StdEncoding.DecodeString(req.TableB64)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var table mph.Table
		if err := table.UnmarshalBinary(raw); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		a.InstallMPH(&table)
		mu.Unlock()
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		mu.Lock()
		ptr, err := a.PointerSnapshot()
		var ctrl []byte
		if err == nil {
			ctrl, err = a.ControlStoreSnapshot()
		}
		var mphRaw []byte
		if err == nil && a.MPH() != nil {
			mphRaw, err = a.MPH().MarshalBinary()
		}
		mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := SwitchSnapshotResponse{
			PointerB64: base64.StdEncoding.EncodeToString(ptr),
			ControlB64: base64.StdEncoding.EncodeToString(ctrl),
		}
		if mphRaw != nil {
			resp.MPHB64 = base64.StdEncoding.EncodeToString(mphRaw)
		}
		writeJSON(w, resp)
	})
	return mux
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
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

// HTTPClient is the analyzer-side client for the HTTP binding.
//
// Concurrency contract: an HTTPClient is goroutine-safe — all query methods
// may be called concurrently (http.Client and http.Transport are themselves
// concurrent-safe), which is what QueryHosts relies on to fan a round out
// over many host agents at once. The flask deployment the paper measures
// opens one connection per server per query (§6.2's sequential bottleneck);
// NewPooledHTTPClient is the corresponding fix: a shared, keep-alive
// http.Transport whose idle pool spans query rounds, so repeat rounds skip
// connection initiation entirely — the real-network twin of the cost model's
// Pooled+Parallel accounting.
//
// Static-analysis contract: splint treats every HTTPClient method (except
// Close/CloseIdleConnections) as a network round. locklint therefore flags
// any call on one while a sync.Mutex/RWMutex is held — clone the state
// under the lock and send outside it — and ctxlint requires exported
// callers in the service-plane packages to thread a context.Context down
// into these methods rather than severing the chain with
// context.Background.
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

func (c *HTTPClient) post(ctx context.Context, url string, req, resp any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.PerHostTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.PerHostTimeout)
		defer cancel()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("rpc: marshal: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("rpc: request %s: %w", url, err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if rc, ok := trace.RemoteFromContext(ctx); ok {
		httpReq.Header.Set(trace.Header, rc.Encode())
	}
	httpResp, err := c.HTTP.Do(httpReq)
	if err != nil {
		return fmt.Errorf("rpc: post %s: %w", url, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return fmt.Errorf("rpc: %s: status %d: %s", url, httpResp.StatusCode, msg)
	}
	if resp == nil {
		io.Copy(io.Discard, io.LimitReader(httpResp.Body, 1<<20)) //nolint:errcheck
		return nil
	}
	if err := json.NewDecoder(httpResp.Body).Decode(resp); err != nil {
		return err
	}
	// Drain to EOF so the transport sees the response end and returns the
	// connection to the idle pool — otherwise every chunked response kills
	// its keep-alive connection and fan-out rounds re-pay connection setup.
	io.Copy(io.Discard, io.LimitReader(httpResp.Body, 1<<20)) //nolint:errcheck
	return nil
}

// get issues a GET and decodes the JSON answer, under the same per-host
// timeout discipline as post.
func (c *HTTPClient) get(ctx context.Context, url string, resp any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.PerHostTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.PerHostTimeout)
		defer cancel()
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("rpc: request %s: %w", url, err)
	}
	if rc, ok := trace.RemoteFromContext(ctx); ok {
		httpReq.Header.Set(trace.Header, rc.Encode())
	}
	httpResp, err := c.HTTP.Do(httpReq)
	if err != nil {
		return fmt.Errorf("rpc: get %s: %w", url, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return fmt.Errorf("rpc: %s: status %d: %s", url, httpResp.StatusCode, msg)
	}
	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("rpc: read %s: %w", url, err)
	}
	if err := json.Unmarshal(raw, resp); err != nil {
		return fmt.Errorf("rpc: decode %s: %w", url, err)
	}
	return nil
}

// SwitchSnapshot pulls the state-sync snapshot of the switch agent at
// baseURL (GET /snapshot). Apply it to a local agent with Apply.
func (c *HTTPClient) SwitchSnapshot(ctx context.Context, baseURL string) (SwitchSnapshotResponse, error) {
	var out SwitchSnapshotResponse
	err := c.get(ctx, baseURL+"/snapshot", &out)
	return out, err
}

// headersToWire/headersFromWire map between the in-process HeadersAnswer
// and its wire form, field for field.
func headersToWire(ans hostagent.HeadersAnswer) HeadersResponse {
	return HeadersResponse{
		Records:            ans.Records,
		ColdSegments:       ans.ColdSegments,
		ColdRecords:        ans.ColdRecords,
		ColdReturned:       ans.ColdReturned,
		ColdSkippedByIndex: ans.ColdSkippedByIndex,
		TieredSegments:     ans.TieredSegments,
	}
}

func headersFromWire(resp HeadersResponse) hostagent.HeadersAnswer {
	return hostagent.HeadersAnswer{
		Records:            resp.Records,
		ColdSegments:       resp.ColdSegments,
		ColdRecords:        resp.ColdRecords,
		ColdReturned:       resp.ColdReturned,
		ColdSkippedByIndex: resp.ColdSkippedByIndex,
		TieredSegments:     resp.TieredSegments,
	}
}

// QueryHeaders fetches matching records (and the host's cold read-back
// accounting) from a host agent at baseURL.
func (c *HTTPClient) QueryHeaders(ctx context.Context, baseURL string, sw netsim.NodeID, epochs simtime.EpochRange) (hostagent.HeadersAnswer, error) {
	var out HeadersResponse
	err := c.post(ctx, baseURL+"/headers", HeadersRequest{Switch: sw, EpochLo: epochs.Lo, EpochHi: epochs.Hi}, &out)
	return headersFromWire(out), err
}

// QueryHeadersBatch answers several header queries against one host in a
// single request (POST /headers-batch), one answer per query in order.
func (c *HTTPClient) QueryHeadersBatch(ctx context.Context, baseURL string, qs []hostagent.HeadersQuery) ([]hostagent.HeadersAnswer, error) {
	req := HeadersBatchRequest{Queries: make([]HeadersRequest, len(qs))}
	for i, q := range qs {
		req.Queries[i] = HeadersRequest{Switch: q.Switch, EpochLo: q.Epochs.Lo, EpochHi: q.Epochs.Hi, Flows: q.Flows}
	}
	var out HeadersBatchResponse
	if err := c.post(ctx, baseURL+"/headers-batch", req, &out); err != nil {
		return nil, err
	}
	if len(out.Answers) != len(qs) {
		return nil, fmt.Errorf("rpc: headers batch answered %d of %d queries", len(out.Answers), len(qs))
	}
	answers := make([]hostagent.HeadersAnswer, len(out.Answers))
	for i, ans := range out.Answers {
		answers[i] = headersFromWire(ans)
	}
	return answers, nil
}

// QueryTopK fetches a host's top-k flows through a switch.
func (c *HTTPClient) QueryTopK(ctx context.Context, baseURL string, sw netsim.NodeID, k int) ([]hostagent.FlowBytes, error) {
	var out []hostagent.FlowBytes
	err := c.post(ctx, baseURL+"/topk", TopKRequest{Switch: sw, K: k}, &out)
	return out, err
}

// QueryFlowSizes fetches flow sizes + egress links at a switch from a host.
func (c *HTTPClient) QueryFlowSizes(ctx context.Context, baseURL string, sw netsim.NodeID) ([]hostagent.FlowSize, error) {
	var out []hostagent.FlowSize
	err := c.post(ctx, baseURL+"/flowsizes", FlowSizesRequest{Switch: sw}, &out)
	return out, err
}

// QueryPriority fetches a flow's priority from a host.
func (c *HTTPClient) QueryPriority(ctx context.Context, baseURL string, flow netsim.FlowKey) (uint8, bool, error) {
	var out PriorityResponse
	err := c.post(ctx, baseURL+"/priority", PriorityRequest{Flow: flow}, &out)
	return out.Priority, out.Known, err
}

// QueryRecord fetches one flow's full record from its destination host.
func (c *HTTPClient) QueryRecord(ctx context.Context, baseURL string, flow netsim.FlowKey) (*flowrec.Record, bool, error) {
	var out RecordResponse
	err := c.post(ctx, baseURL+"/record", RecordRequest{Flow: flow}, &out)
	return out.Record, out.Known && err == nil, err
}

// InstallMPH distributes a minimal perfect hash table to the switch at
// baseURL (the §4.3 membership-change push).
func (c *HTTPClient) InstallMPH(ctx context.Context, baseURL string, t *mph.Table) error {
	raw, err := t.MarshalBinary()
	if err != nil {
		return fmt.Errorf("rpc: marshal mph: %w", err)
	}
	return c.post(ctx, baseURL+"/mph", MPHRequest{TableB64: base64.StdEncoding.EncodeToString(raw)}, nil)
}

// PullPointers fetches a switch's pointer union for an epoch range.
func (c *HTTPClient) PullPointers(ctx context.Context, baseURL string, epochs simtime.EpochRange) (*bitset.Set, PointersResponse, error) {
	var out PointersResponse
	if err := c.post(ctx, baseURL+"/pointers", PointersRequest{EpochLo: epochs.Lo, EpochHi: epochs.Hi}, &out); err != nil {
		return nil, out, err
	}
	bits, err := out.Decode()
	return bits, out, err
}

// HostResult is one host's outcome in a concurrent query round.
type HostResult[T any] struct {
	URL string
	Val T
	Err error
}

// QueryHosts fans fn out over the given base URLs on the shared bounded
// worker pool (FanOut), preserving the partial-result contract: results[i]
// corresponds to urls[i], only the dispatched prefix is returned, and the
// per-URL order never depends on worker scheduling. fn typically wraps one
// of the Query* methods; per-host failures land in the result's Err so one
// dead agent does not abort the round. On cancellation the dispatched
// prefix and ctx's error are returned together.
func QueryHosts[T any](ctx context.Context, c *HTTPClient, workers int, urls []string, fn func(ctx context.Context, c *HTTPClient, url string) (T, error)) ([]HostResult[T], error) {
	results := make([]HostResult[T], len(urls))
	dispatched, err := FanOut(ctx, workers, len(urls), func(ctx context.Context, i int) {
		results[i].URL = urls[i]
		results[i].Val, results[i].Err = fn(ctx, c, urls[i])
	})
	return results[:dispatched], err
}

// Ensure topo.LinkID marshals as a plain number in FlowSize responses.
var _ = topo.LinkID(0)
