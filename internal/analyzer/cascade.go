package analyzer

import (
	"context"
	"fmt"

	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/trace"
)

// maxCascadeDepth bounds how far back the analyzer chases causality.
const maxCascadeDepth = 4

// diagnoseCascade is the §5.3 procedure: after finding the victim's direct
// aggressor, it recursively examines the aggressor's own path and epochs —
// "whether or not the flow was affected by some other flows" — building the
// causality chain (e.g. C-E was delayed by A-F, which was itself delayed by
// B-D). This needs both spatial correlation (pointers across switches) and
// temporal correlation (overlapping epochs), including telemetry of flows
// that never triggered any alert themselves.
func (a *Analyzer) diagnoseCascade(ctx context.Context, alert hostagent.Alert) (*Report, error) {
	clock := rpc.NewClock(a.Cost, alert.DetectedAt)
	clock.Trace(trace.FromContext(ctx))
	clock.Spend("detection", a.DetectionLatency)
	clock.AlertDelivered()

	chain := []netsim.FlowKey{alert.Flow}
	visited := map[netsim.FlowKey]bool{alert.Flow: true}

	first, err := a.contentionRound(ctx, clock, alert)
	agg := first
	result := &Report{
		Alert:              alert,
		Clock:              clock,
		PerSwitch:          first.PerSwitch,
		Culprits:           first.Culprits,
		PointerHosts:       first.PointerHosts,
		PrunedHosts:        first.PrunedHosts,
		HostsContacted:     first.HostsContacted,
		Consulted:          first.Consulted,
		ColdSegments:       first.ColdSegments,
		ColdSkippedByIndex: first.ColdSkippedByIndex,
		TieredSegments:     first.TieredSegments,
		Cascade:            chain,
		Kind:               KindInconclusive,
	}
	if err != nil {
		return aborted(result, ctx, err, "first contention round")
	}

	for depth := 0; depth < maxCascadeDepth; depth++ {
		if len(agg.Culprits) == 0 {
			break
		}
		top := agg.Culprits[0]
		if visited[top.Flow] {
			break
		}
		visited[top.Flow] = true
		chain = append(chain, top.Flow)

		if ctx.Err() != nil {
			result.Cascade = chain
			return cancelled(result, ctx, fmt.Sprintf("cascade round %d", depth+1))
		}

		// Was the aggressor itself delayed? Examine pointers along ITS path
		// during ITS epochs. Its telemetry lives at its destination host.
		synth, ok := a.syntheticAlert(ctx, clock, top.Flow)
		if !ok {
			break
		}
		next, err := a.contentionRound(ctx, clock, synth)
		// Keep only strictly higher-priority culprits: a flow can only have
		// been delayed by traffic its queue had to yield to.
		next.Culprits = filterAbovePriority(next.Culprits, top.Priority)
		result.PointerHosts += next.PointerHosts
		result.PrunedHosts += next.PrunedHosts
		result.HostsContacted += next.HostsContacted
		result.ColdSegments += next.ColdSegments
		result.ColdSkippedByIndex += next.ColdSkippedByIndex
		result.TieredSegments += next.TieredSegments
		result.Consulted = dedupIPs(result.Consulted, next.Consulted)
		for sw, cs := range next.PerSwitch {
			for _, c := range filterAbovePriority(cs, top.Priority) {
				result.PerSwitch[sw] = appendCulprit(result.PerSwitch[sw], c)
				result.Culprits = appendCulprit(result.Culprits, c)
			}
		}
		if err != nil {
			result.Cascade = chain
			sortCulprits(result.Culprits)
			return aborted(result, ctx, err, fmt.Sprintf("cascade round %d", depth+1))
		}
		agg = next
	}

	result.Cascade = chain
	sortCulprits(result.Culprits)
	if len(chain) >= 3 {
		result.Kind = KindCascade
		result.Conclusion = fmt.Sprintf("traffic cascade: %s", chainString(chain))
	} else if len(result.Culprits) > 0 {
		result.Kind = first.Kind
		result.Conclusion = first.Conclusion + " (no deeper cascade found)"
	} else {
		result.Kind = KindInconclusive
		result.Conclusion = "no contending flows found"
	}
	return result, nil
}

// syntheticAlert builds the alert-equivalent tuples for a flow from its
// destination host's record (one extra host contact, charged to the clock),
// fetched through the host backend so the cascade procedure works over the
// wire too.
func (a *Analyzer) syntheticAlert(ctx context.Context, clock *rpc.Clock, flow netsim.FlowKey) (hostagent.Alert, bool) {
	// The record probe parents under the one-host diagnosis round charged
	// just below.
	ctx = clock.RemoteCtx(ctx)
	rec, ok := a.hostBackend().Record(ctx, flow.Dst, flow)
	if !ok {
		return hostagent.Alert{}, false
	}
	clock.HostsQueried("diagnosis", []string{flow.Dst.String()}, []int{1})
	al := hostagent.Alert{Flow: flow, Host: flow.Dst}
	for i, sw := range rec.Path {
		al.Tuples = append(al.Tuples, hostagent.AlertTuple{Switch: sw, Epochs: rec.Epochs[i]})
	}
	return al, true
}

func filterAbovePriority(cs []Culprit, prio uint8) []Culprit {
	var out []Culprit
	for _, c := range cs {
		if c.Priority > prio {
			out = append(out, c)
		}
	}
	return out
}

func chainString(chain []netsim.FlowKey) string {
	s := ""
	for i, f := range chain {
		if i > 0 {
			s += " ← delayed by "
		}
		s += f.String()
	}
	return s
}
