package analyzer

import (
	"context"
	"errors"
	"fmt"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
)

// RemoteHosts is the HostBackend for a real deployment: every per-host
// query round of the diagnosis procedures travels the JSON/HTTP binding to
// rpc.NewHostHandler servers, through the same hostRound as MemoryHosts —
// the host-side twin of RemoteDirectory. With both installed on an
// Analyzer, a whole diagnosis (pointer pulls, MPH distribution, and all
// per-host rounds) runs over the wire, and the Report is byte-identical to
// the in-memory run: rounds dispatch in host order, answers merge in host
// order, and the partial-cost contract under cancellation is hostRound's.
//
// A host without a registered URL, or one whose server fails a request,
// answers with nothing — the same silent-server semantics as an absent
// in-memory agent, so one dead host never aborts a round: each round drops
// a transport or status error because HostBackend's contract gives an
// unreachable host a zero answer, not an error. HeadersRound keeps one
// kind: an answer that arrives but fails the client's check
// (rpc.ErrBadAnswer) fails the round naming the host, as the same answer
// in memory aborts the diagnosis. TopKRound and FlowSizesRound drop
// every error.
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

// call is a remote round's arguments: the client to send with and the query.
type call[Q any] struct {
	c *rpc.HTTPClient
	q Q
}

// HeadersRound implements HostBackend over HTTP: one /headers-batch POST
// per host carrying every query of the round (matching the one-round
// virtual-time charge), hosts in parallel, answers per host in query
// order. The hosts' cold read-back accounting rides the wire form, so a
// remote diagnosis charges the extra round exactly like the in-memory one.
// A host whose answer fails the client's check fails the round with an
// error wrapping rpc.ErrBadAnswer and naming the host.
func (r *RemoteHosts) HeadersRound(ctx context.Context, workers int, hosts []netsim.IPv4, queries []hostagent.HeadersQuery) ([][]hostagent.HeadersAnswer, int, error) {
	replies, dispatched, err := hostRound(ctx, workers, hosts, r.urls, call[[]hostagent.HeadersQuery]{r.client, queries}, func(ctx context.Context, url string, a call[[]hostagent.HeadersQuery]) headersReply {
		answers, err := a.c.QueryHeadersBatch(ctx, url, a.q)
		if errors.Is(err, rpc.ErrBadAnswer) {
			return headersReply{err: err}
		}
		return headersReply{answers: answers}
	})
	answers := make([][]hostagent.HeadersAnswer, len(hosts))
	for i, rep := range replies[:dispatched] {
		answers[i] = rep.answers
		if rep.err != nil && err == nil {
			err = fmt.Errorf("host %v: %w", hosts[i], rep.err)
		}
	}
	return answers, dispatched, err
}

// headersReply is one host's part of a remote HeadersRound: its answers, or
// why they failed the client's check. The round scans the replies in host
// order, so the error it returns names the first such host whatever the
// worker count.
type headersReply struct {
	answers []hostagent.HeadersAnswer
	err     error
}

// TopKRound implements HostBackend over HTTP.
func (r *RemoteHosts) TopKRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID, k int) ([][]hostagent.FlowBytes, int, error) {
	return hostRound(ctx, workers, hosts, r.urls, call[topK]{r.client, topK{sw, k}}, func(ctx context.Context, url string, a call[topK]) []hostagent.FlowBytes {
		top, _ := a.c.QueryTopK(ctx, url, a.q.sw, a.q.k)
		return top
	})
}

// FlowSizesRound implements HostBackend over HTTP.
func (r *RemoteHosts) FlowSizesRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID) ([][]hostagent.FlowSize, int, error) {
	return hostRound(ctx, workers, hosts, r.urls, call[netsim.NodeID]{r.client, sw}, func(ctx context.Context, url string, a call[netsim.NodeID]) []hostagent.FlowSize {
		sizes, _ := a.c.QueryFlowSizes(ctx, url, a.q)
		return sizes
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
