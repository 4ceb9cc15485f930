package analyzer

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/trace"
)

// TopKMode selects how the query locates telemetry.
type TopKMode uint8

// Query modes.
const (
	// ModeSwitchPointer contacts only the hosts named by the switch's
	// pointers for the window.
	ModeSwitchPointer TopKMode = iota
	// ModePathDump contacts every server (the baseline: "PathDump executes
	// the query from all the servers in the network").
	ModePathDump
)

// topK runs the distributed top-k query (§6.2, Fig 12) over the hosts'
// telemetry, locating the relevant hosts per the query mode.
func (a *Analyzer) topK(ctx context.Context, q TopKQuery) (*Report, error) {
	clock := rpc.NewClock(a.Cost, q.At)
	clock.Trace(trace.FromContext(ctx))
	rep := &Report{Switch: q.Switch, Clock: clock, Kind: KindTopK}

	var hosts []netsim.IPv4
	switch q.Mode {
	case ModePathDump:
		for _, h := range a.Topo.Hosts() {
			hosts = append(hosts, h.IP())
		}
		sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	default:
		var err error
		// The pointer pull parents under the pointer-retrieval span
		// charged on return.
		hosts, err = a.Dir.Hosts(clock.RemoteCtx(ctx), q.Switch, q.Window)
		if err != nil {
			rep.Kind = KindInconclusive
			if errors.Is(err, ErrUnknownSwitch) {
				rep.Conclusion = "unknown switch"
				return rep, err
			}
			return aborted(rep, ctx, err, "pointer retrieval")
		}
		clock.PointersPulled(1)
	}
	rep.HostsContacted = len(hosts)
	rep.Consulted = hosts

	// Per-host top-k queries run as one HostBackend round (fanned out over
	// the worker pool in both backends); each host fills its own answer slot
	// and the merge below runs in sorted host order, so the result is
	// identical for every worker count and backend.
	answers, dispatched, cerr := a.hostBackend().TopKRound(clock.RemoteCtx(ctx), a.workers(), hosts, q.Switch, q.K)
	merged := make(map[netsim.FlowKey]uint64)
	recCounts := make([]int, dispatched)
	for i := 0; i < dispatched; i++ {
		recCounts[i] = len(answers[i])
		for _, fb := range answers[i] {
			if fb.Bytes > merged[fb.Flow] {
				merged[fb.Flow] = fb.Bytes
			}
		}
	}
	if cerr != nil {
		// Keep the answers already merged: the caller paid for these host
		// queries and the partial Report must carry their data.
		chargePartial(rep, "query-execution", hosts, recCounts)
		rep.Flows = sortedFlows(merged, q.K)
		return cancelled(rep, ctx, "query execution")
	}
	clock.HostsQueried("query-execution", hostNames(hosts), recCounts)

	rep.Flows = sortedFlows(merged, q.K)
	rep.Conclusion = fmt.Sprintf("top-%d flows at switch %d via %d host(s)", q.K, q.Switch, rep.HostsContacted)
	return rep, nil
}

// sortedFlows orders merged per-host answers by bytes descending (flow key
// as the tie-break) and truncates to k when k > 0.
func sortedFlows(merged map[netsim.FlowKey]uint64, k int) []hostagent.FlowBytes {
	flows := make([]hostagent.FlowBytes, 0, len(merged))
	for f, b := range merged {
		flows = append(flows, hostagent.FlowBytes{Flow: f, Bytes: b})
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Bytes != flows[j].Bytes {
			return flows[i].Bytes > flows[j].Bytes
		}
		return flows[i].Flow.CompareString(flows[j].Flow) < 0
	})
	if k > 0 && len(flows) > k {
		flows = flows[:k]
	}
	return flows
}
