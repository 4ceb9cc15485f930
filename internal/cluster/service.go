package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"switchpointer/internal/metrics"
	"switchpointer/internal/rpc"
	"switchpointer/internal/statesync"
	"switchpointer/internal/trace"
)

// DiagnoseResponse is the body POST /diagnose answers with. A fully
// successful query carries only Report; a cancelled/deadline-cut query that
// still produced a partial report carries both (Error explains the cut);
// admission failures carry only Error (with a non-200 status).
type DiagnoseResponse struct {
	Report *WireReport `json:"report,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// ReadHeaderTimeout is how long every server of the service plane (the spd
// daemons and Loopback's three) waits for a peer to finish its request
// headers — without a bound, a peer that opens a connection and stalls
// holds a goroutine forever.
const ReadHeaderTimeout = 10 * time.Second

// Service is one role's mounted HTTP plane — what HostMux, SwitchMux and
// NewAnalyzerHandler return: the handler to serve plus the two things a
// daemon keeps using after mounting it. Registry is what /metrics renders
// (families resolve at scrape time, so a daemon adds its process-level ones
// after the call); Flight is what /traces serves and what the role's
// handlers record into.
type Service struct {
	http.Handler
	Registry *metrics.Registry
	Flight   *trace.FlightRecorder
}

// newService mounts the surfaces every role shares — GET /metrics, /traces
// and /traces/<id> — and wraps the result.
func newService(mux *http.ServeMux, reg *metrics.Registry, fr *trace.FlightRecorder) *Service {
	mux.Handle("/metrics", reg.Handler())
	traces := http.StripPrefix("/traces", fr.Handler())
	mux.Handle("/traces", traces)
	mux.Handle("/traces/", traces)
	return &Service{Handler: mux, Registry: reg, Flight: fr}
}

// NewAnalyzerHandler exposes the analyzer service plane over HTTP:
//
//	POST /diagnose — QueryEnvelope in, DiagnoseResponse out. Admission
//	                 failures map to status codes: queue full → 429,
//	                 queue wait expired → 503, malformed query or a
//	                 trace_id trace.ValidID refuses → 400.
//	GET  /stats    — AdmissionStats counters.
//	GET  /metrics  — Prometheus text over an AnalyzerRegistry (admission
//	                 occupancy plus per-query-kind diagnosis families).
//	GET  /healthz  — statesync.Health JSON. The analyzer holds no telemetry
//	and needs no bootstrap, so it reports state "live" with
//	zero resident/evicted counts.
//	GET  /traces   — ad.Flight's trace index; /traces/<id> one merged trace
//	                 (an empty index when ad.Flight is nil: tracing unarmed).
//
// Handlers are safe for concurrent requests; concurrency across diagnoses
// is exactly what the admission controller bounds.
func NewAnalyzerHandler(ad *Admission) *Service {
	mux := http.NewServeMux()
	mux.Handle("/diagnose", rpc.Endpoint(nil, "diagnose", rpc.LimitRequest,
		func(ctx context.Context, env *QueryEnvelope) (DiagnoseResponse, []trace.Attr, error) {
			q, err := env.Query()
			if err == nil && env.TraceID != "" && !trace.ValidID(env.TraceID) {
				err = fmt.Errorf("cluster: trace_id %q: want 1 to %d bytes of [A-Za-z0-9._-], not . or ..", env.TraceID, trace.MaxIDLen)
			}
			if err != nil {
				return DiagnoseResponse{}, nil, rpc.BadRequest(err)
			}
			if env.TraceID != "" {
				// The client pinned a trace ID: install a recorder under that ID
				// so the admission controller adopts it instead of deriving one.
				ctx = trace.NewContext(ctx, trace.NewRecorder(env.TraceID, "analyzer", q.Name()))
			}
			rep, err := ad.Run(ctx, q)
			switch {
			case errors.Is(err, ErrRejected):
				return DiagnoseResponse{}, nil, &rpc.StatusError{Code: http.StatusTooManyRequests, Body: err.Error()}
			case errors.Is(err, ErrExpired):
				return DiagnoseResponse{}, nil, &rpc.StatusError{Code: http.StatusServiceUnavailable, Body: err.Error()}
			case err != nil && rep == nil:
				// Validation or queue-side cancellation: no report to return.
				return DiagnoseResponse{}, nil, rpc.BadRequest(err)
			}
			resp := DiagnoseResponse{Report: WireFromReport(rep)}
			if err != nil {
				resp.Error = err.Error() // partial report: cost incurred so far
			}
			return resp, nil, nil
		}))
	mux.Handle("/stats", rpc.Endpoint(nil, "stats", 0,
		func(context.Context, *rpc.Empty) (AdmissionStats, []trace.Attr, error) { return ad.Stats(), nil, nil }))
	mux.Handle("/healthz", statesync.HealthzHandler(nil, nil))
	fr := ad.Flight
	if fr == nil {
		fr = trace.NewFlightRecorder("analyzer", 0)
	}
	return newService(mux, AnalyzerRegistry(ad), fr)
}

// Client submits queries to a running spd analyzer service.
type Client struct {
	// BaseURL is the analyzer service root, e.g. http://127.0.0.1:7643.
	BaseURL string
	// HTTP is the client to use (http.DefaultClient when nil).
	HTTP *http.Client
}

// Diagnose submits an envelope and returns the wire report. A partial
// report (server-side cancellation) is returned together with an error
// describing the cut; admission failures return nil and an error wrapping
// the *rpc.StatusError (429 queue full, 503 queue wait expired, 400
// malformed query).
func (c *Client) Diagnose(ctx context.Context, env QueryEnvelope) (*WireReport, error) {
	var resp DiagnoseResponse
	if err := rpc.NewHTTPClient(c.HTTP).Call(ctx, c.BaseURL+"/diagnose", env, &resp, rpc.LimitReport); err != nil {
		return nil, fmt.Errorf("cluster: /diagnose: %w", err)
	}
	if resp.Error != "" {
		return resp.Report, fmt.Errorf("cluster: remote query cut short: %s", resp.Error)
	}
	return resp.Report, nil
}

// Stats fetches the admission counters.
func (c *Client) Stats(ctx context.Context) (AdmissionStats, error) {
	var stats AdmissionStats
	err := rpc.NewHTTPClient(c.HTTP).Call(ctx, c.BaseURL+"/stats", nil, &stats, rpc.LimitRequest)
	return stats, err
}

// WaitReady polls url (a /healthz endpoint) until the daemon behind it is
// ready or the timeout elapses — the readiness gate daemons and scripts use
// before pointing clients at a freshly started cluster. Ready means an HTTP
// 200 whose statesync.Health body reports state "live": a bootstrapping
// daemon answers 200 with state "syncing" while it absorbs its peer's
// snapshot, and WaitReady keeps polling until the bootstrap lands. A 200
// with a non-JSON body (a plain health endpoint) counts as live.
func WaitReady(ctx context.Context, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	var lastErr error
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			switch {
			case rerr != nil:
				lastErr = rerr
			case resp.StatusCode != http.StatusOK:
				lastErr = fmt.Errorf("status %d", resp.StatusCode)
			default:
				var h statesync.Health
				if jerr := json.Unmarshal(body, &h); jerr == nil && h.State != "" && h.State != statesync.StateLive.String() {
					lastErr = fmt.Errorf("state %q", h.State)
				} else {
					return nil
				}
			}
		} else {
			lastErr = err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("cluster: %s not ready after %v: %v", url, timeout, lastErr)
}
