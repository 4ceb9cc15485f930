package analyzer

import (
	"context"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
)

// RemoteHosts is the HostBackend for a real deployment: every per-host
// query round of the diagnosis procedures travels the JSON/HTTP binding,
// fanned out through rpc.QueryHosts against rpc.NewHostHandler servers —
// the host-side twin of RemoteDirectory. With both installed on an
// Analyzer, a whole diagnosis (pointer pulls, MPH distribution, and all
// per-host rounds) runs over the wire, and the Report is byte-identical to
// the in-memory run: rounds dispatch in host order, answers merge in host
// order, and the partial-cost contract under cancellation is carried
// through rpc.QueryHosts unchanged.
//
// A host without a registered URL, or one whose server fails a request,
// answers with nothing — the same silent-server semantics as an absent
// in-memory agent, so one dead host never aborts a round.
//
// Concurrency: all methods are safe for concurrent use (rpc.HTTPClient is
// goroutine-safe), including overlapping whole diagnoses.
type RemoteHosts struct {
	urls   map[netsim.IPv4]string // host → base URL
	client *rpc.HTTPClient
}

var _ HostBackend = (*RemoteHosts)(nil)

// NewRemoteHosts binds host agents served at the given base URLs. client
// may be nil, in which case a pooled client (keep-alive transport) is used
// — the right default, since query rounds repeat against the same hosts.
func NewRemoteHosts(hostURLs map[netsim.IPv4]string, client *rpc.HTTPClient) *RemoteHosts {
	if client == nil {
		client = rpc.NewPooledHTTPClient()
	}
	return &RemoteHosts{urls: hostURLs, client: client}
}

// Client returns the underlying HTTP client (shared with RemoteDirectory in
// typical deployments so the connection pool spans both planes).
func (r *RemoteHosts) Client() *rpc.HTTPClient { return r.client }

// urlsFor aligns base URLs with the host list; unknown hosts get "".
func (r *RemoteHosts) urlsFor(hosts []netsim.IPv4) []string {
	urls := make([]string, len(hosts))
	for i, ip := range hosts {
		urls[i] = r.urls[ip]
	}
	return urls
}

// round is one per-host query round over HTTP: hosts in parallel, one
// answer per host in host order, a host without a URL answering nothing.
func round[T any](ctx context.Context, r *RemoteHosts, workers int, hosts []netsim.IPv4, query func(ctx context.Context, url string) (T, error)) ([]T, int, error) {
	results, err := rpc.QueryHosts(ctx, r.client, workers, r.urlsFor(hosts),
		func(ctx context.Context, _ *rpc.HTTPClient, url string) (T, error) {
			if url == "" {
				var none T
				return none, nil
			}
			return query(ctx, url)
		})
	answers := make([]T, len(hosts))
	for i := range results {
		answers[i] = results[i].Val
	}
	return answers, len(results), err
}

// HeadersRound implements HostBackend over HTTP: one /headers-batch POST
// per host carrying every query of the round (matching the one-round
// virtual-time charge), hosts in parallel, answers per host in query
// order. The hosts' cold read-back accounting rides the wire form, so a
// remote diagnosis charges the extra round exactly like the in-memory one.
func (r *RemoteHosts) HeadersRound(ctx context.Context, workers int, hosts []netsim.IPv4, queries []hostagent.HeadersQuery) ([][]hostagent.HeadersAnswer, int, error) {
	return round(ctx, r, workers, hosts, func(ctx context.Context, url string) ([]hostagent.HeadersAnswer, error) {
		return r.client.QueryHeadersBatch(ctx, url, queries)
	})
}

// TopKRound implements HostBackend over HTTP.
func (r *RemoteHosts) TopKRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID, k int) ([][]hostagent.FlowBytes, int, error) {
	return round(ctx, r, workers, hosts, func(ctx context.Context, url string) ([]hostagent.FlowBytes, error) {
		return r.client.QueryTopK(ctx, url, sw, k)
	})
}

// FlowSizesRound implements HostBackend over HTTP.
func (r *RemoteHosts) FlowSizesRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID) ([][]hostagent.FlowSize, int, error) {
	return round(ctx, r, workers, hosts, func(ctx context.Context, url string) ([]hostagent.FlowSize, error) {
		return r.client.QueryFlowSizes(ctx, url, sw)
	})
}

// Priority implements HostBackend over HTTP; an unreachable host answers
// "unknown".
func (r *RemoteHosts) Priority(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (uint8, bool) {
	url, ok := r.urls[ip]
	if !ok {
		return 0, false
	}
	prio, known, err := r.client.QueryPriority(ctx, url, flow)
	if err != nil {
		return 0, false
	}
	return prio, known
}

// Record implements HostBackend over HTTP; an unreachable host answers
// "no record".
func (r *RemoteHosts) Record(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (*flowrec.Record, bool) {
	url, ok := r.urls[ip]
	if !ok {
		return nil, false
	}
	rec, known, err := r.client.QueryRecord(ctx, url, flow)
	if err != nil || rec == nil {
		return nil, false
	}
	return rec, known
}
