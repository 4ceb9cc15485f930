package analyzer

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"switchpointer/internal/rpc"
	"switchpointer/internal/topo"
	"switchpointer/internal/trace"
)

// LinkDistribution is the flow-size distribution observed on one egress
// interface (link) of the suspect switch.
type LinkDistribution struct {
	Link  topo.LinkID
	Sizes []uint64 // ascending
	Flows int
}

// Min returns the smallest flow size on the link (0 when empty).
func (l LinkDistribution) Min() uint64 {
	if len(l.Sizes) == 0 {
		return 0
	}
	return l.Sizes[0]
}

// Max returns the largest flow size on the link.
func (l LinkDistribution) Max() uint64 {
	if len(l.Sizes) == 0 {
		return 0
	}
	return l.Sizes[len(l.Sizes)-1]
}

// diagnoseImbalance is the §5.4 procedure: it pulls the pointers covering
// the window, asks the named hosts for a flow-size distribution per egress
// interface, and tests for a clean separation in flow size between the
// interfaces (the malfunction signature: small flows on one interface,
// large on the other).
func (a *Analyzer) diagnoseImbalance(ctx context.Context, q ImbalanceQuery) (*Report, error) {
	clock := rpc.NewClock(a.Cost, q.At)
	clock.Trace(trace.FromContext(ctx))
	rep := &Report{Switch: q.Switch, Clock: clock, Kind: KindInconclusive}

	// The pointer pull parents under the pointer-retrieval span charged on
	// return.
	hosts, err := a.Dir.Hosts(clock.RemoteCtx(ctx), q.Switch, q.Window)
	if err != nil {
		if errors.Is(err, ErrUnknownSwitch) {
			rep.Conclusion = "unknown switch"
			return rep, err
		}
		return aborted(rep, ctx, err, "pointer retrieval")
	}
	clock.PointersPulled(1)
	rep.HostsContacted = len(hosts)
	rep.Consulted = hosts

	// Per-host flow-size queries run as one HostBackend round; the byLink
	// merge below runs in sorted host order (and the per-link series are
	// sorted afterwards anyway), so the report is identical for every
	// worker count and backend.
	answers, dispatched, cerr := a.hostBackend().FlowSizesRound(clock.RemoteCtx(ctx), a.workers(), hosts, q.Switch)
	byLink := make(map[topo.LinkID][]uint64)
	recCounts := make([]int, dispatched)
	for i := 0; i < dispatched; i++ {
		recCounts[i] = len(answers[i])
		for _, fs := range answers[i] {
			byLink[fs.Link] = append(byLink[fs.Link], fs.Bytes)
		}
	}
	if cerr != nil {
		chargePartial(rep, "diagnosis", hosts, recCounts)
		return cancelled(rep, ctx, "host queries")
	}
	clock.HostsQueried("diagnosis", hostNames(hosts), recCounts)

	links := make([]topo.LinkID, 0, len(byLink))
	for l := range byLink {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, l := range links {
		sizes := byLink[l]
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		rep.Links = append(rep.Links, LinkDistribution{Link: l, Sizes: sizes, Flows: len(sizes)})
	}

	// Clean-separation test across any pair of links: every flow on one
	// strictly smaller than every flow on the other.
	for i := 0; i < len(rep.Links); i++ {
		for j := 0; j < len(rep.Links); j++ {
			if i == j || rep.Links[i].Flows == 0 || rep.Links[j].Flows == 0 {
				continue
			}
			if rep.Links[i].Max() < rep.Links[j].Min() {
				rep.Separated = true
				rep.Boundary = rep.Links[j].Min()
			}
		}
	}
	switch {
	case rep.Separated:
		rep.Kind = KindLoadImbalance
		rep.Conclusion = fmt.Sprintf(
			"load imbalance: flow sizes separate cleanly across %d egress interfaces at ≈%d bytes (size-based misrouting)",
			len(rep.Links), rep.Boundary)
	case len(rep.Links) > 1:
		rep.Conclusion = "multiple egress interfaces in use, no size separation — balancing looks hash-based"
	default:
		rep.Conclusion = "single egress interface observed; nothing to compare"
	}
	return rep, nil
}
