package analyzer

import (
	"context"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
)

// HostBackend is the analyzer's seam to end-host telemetry: every per-host
// interaction of the five diagnosis procedures — the fan-out query rounds
// and the two single-host probes — goes through this interface, mirroring
// what the Directory interface does for switch pointer state. The in-memory
// implementation (MemoryHosts, which analyzer.New installs) reaches
// hostagent.Agent executors directly; the HTTP implementation (RemoteHosts)
// reaches the same executors over their JSON/HTTP binding
// (rpc.NewHostHandler), so a whole diagnosis can run over the wire. Both
// run every round through hostRound.
//
// # Round contract
//
// The *Round methods each run one per-host query round and carry the
// rpc.FanOut partial-result contract through unchanged, because the
// procedures' cost accounting depends on it:
//
//   - answers[i] is host hosts[i]'s reply; only indices < dispatched are
//     meaningful, and dispatched is always a prefix of the host list: hosts
//     are claimed one at a time in host order, each after one ctx check, so
//     cancellation stops dispatch at a deterministic per-host checkpoint
//     whichever goroutine makes the claim.
//   - Every dispatched host's answer is complete when the round returns, so
//     callers merge in host order and results never depend on worker
//     scheduling; workers ≤ 0 selects rpc.DefaultFanOutWorkers.
//   - err is the ctx error observed at the checkpoint that stopped early.
//     A round that dispatched every host still returns ctx.Err() when ctx
//     is done by the time it returns: a request cut short by the cancel
//     left its answer empty, so the round is not whole. Otherwise err is
//     nil, or, from RemoteHosts.HeadersRound, an error wrapping
//     rpc.ErrBadAnswer that names the first host in host order whose answer
//     arrived but failed the client's check. A host the backend cannot
//     reach (absent agent, dead server) yields a zero answer, not an error
//     — one dead host never aborts a round.
//
// Implementations must support any number of concurrent rounds (the
// admission controller overlaps whole diagnoses).
type HostBackend interface {
	// HeadersRound asks each host for records matching each query:
	// answers[i][q] holds hosts[i]'s answer for queries[q] — the matching
	// records plus the host's cold read-back accounting (segments decoded
	// past the hot window), which the procedures charge as one extra
	// virtual-time round.
	HeadersRound(ctx context.Context, workers int, hosts []netsim.IPv4, queries []hostagent.HeadersQuery) (answers [][]hostagent.HeadersAnswer, dispatched int, err error)
	// TopKRound asks each host for its top-k flows through switch sw.
	TopKRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID, k int) (answers [][]hostagent.FlowBytes, dispatched int, err error)
	// FlowSizesRound asks each host for flow sizes + egress links at sw.
	FlowSizesRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID) (answers [][]hostagent.FlowSize, dispatched int, err error)
	// Priority asks one host for a flow's recorded DSCP priority.
	Priority(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (uint8, bool)
	// Record fetches one flow's record from its destination host — the
	// cascade procedure's synthetic-alert source. ok is false when the host
	// is unreachable or holds no record for the flow.
	Record(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (*flowrec.Record, bool)
}

// hostRound is the one per-host query round behind every *Round method:
// ask(ctx, peer, args) for each host in parallel (rpc.FanOut), one answer per
// host in host order, and a zero answer for a host missing from peers. args
// reaches ask as a parameter so ask can be a literal that captures nothing.
// rpc.FanOut consults ctx only before each claim, so a cancel that lands
// while the last hosts' requests are in flight is read here, from Done, which
// keeps the round at FanOut's one Err check per host.
func hostRound[P, A, T any](ctx context.Context, workers int, hosts []netsim.IPv4, peers map[netsim.IPv4]P, args A, ask func(ctx context.Context, peer P, args A) T) ([]T, int, error) {
	answers := make([]T, len(hosts))
	dispatched, err := rpc.FanOut(ctx, workers, len(hosts), func(ctx context.Context, i int) {
		if peer, ok := peers[hosts[i]]; ok {
			answers[i] = ask(ctx, peer, args)
		}
	})
	if err == nil {
		select {
		case <-ctx.Done():
			err = ctx.Err()
		default:
		}
	}
	return answers, dispatched, err
}

// topK is a TopKRound's arguments.
type topK struct {
	sw netsim.NodeID
	k  int
}

// MemoryHosts is the HostBackend analyzer.New installs: it reaches host
// agents in-process (the analyzer colocated with the simulated testbed).
// Hosts without an agent answer every query with nothing, matching a silent
// server.
type MemoryHosts struct {
	Agents map[netsim.IPv4]*hostagent.Agent
}

var _ HostBackend = MemoryHosts{}

// HeadersRound implements HostBackend over in-process agents: one
// multi-query pass per host, so cold segments decode once per round, not
// once per alert tuple.
func (m MemoryHosts) HeadersRound(ctx context.Context, workers int, hosts []netsim.IPv4, queries []hostagent.HeadersQuery) ([][]hostagent.HeadersAnswer, int, error) {
	return hostRound(ctx, workers, hosts, m.Agents, queries, func(ctx context.Context, ag *hostagent.Agent, qs []hostagent.HeadersQuery) []hostagent.HeadersAnswer {
		return ag.QueryHeadersMulti(ctx, qs)
	})
}

// TopKRound implements HostBackend over in-process agents.
func (m MemoryHosts) TopKRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID, k int) ([][]hostagent.FlowBytes, int, error) {
	return hostRound(ctx, workers, hosts, m.Agents, topK{sw, k}, func(ctx context.Context, ag *hostagent.Agent, q topK) []hostagent.FlowBytes {
		return ag.QueryTopK(ctx, q.sw, q.k)
	})
}

// FlowSizesRound implements HostBackend over in-process agents.
func (m MemoryHosts) FlowSizesRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID) ([][]hostagent.FlowSize, int, error) {
	return hostRound(ctx, workers, hosts, m.Agents, sw, func(ctx context.Context, ag *hostagent.Agent, sw netsim.NodeID) []hostagent.FlowSize {
		return ag.QueryFlowSizes(ctx, sw)
	})
}

// Priority implements HostBackend over in-process agents.
func (m MemoryHosts) Priority(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (uint8, bool) {
	ag, ok := m.Agents[ip]
	if !ok {
		return 0, false
	}
	return ag.QueryPriority(ctx, flow)
}

// Record implements HostBackend over in-process agents.
func (m MemoryHosts) Record(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (*flowrec.Record, bool) {
	ag, ok := m.Agents[ip]
	if !ok {
		return nil, false
	}
	return ag.LookupRecord(ctx, flow)
}
