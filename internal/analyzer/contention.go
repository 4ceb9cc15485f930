package analyzer

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
	"switchpointer/internal/trace"
)

// diagnoseContention is the §5.1 "too much traffic" procedure, which also
// covers §5.2 "too many red lights" (the same machinery, with culprits
// grouped per switch).
//
// Steps, each charged to the virtual-time clock:
//  1. the destination host detected the problem (detection);
//  2. the alert with <switchID, epochIDs, byte counts> tuples reached the
//     analyzer (alert);
//  3. pointers were pulled from the path's switches for the victim's epochs
//     (pointer retrieval);
//  4. the hosts named by the pointers — after topology pruning — were
//     queried for matching headers, and the returned records correlated
//     with the victim (diagnosis).
func (a *Analyzer) diagnoseContention(ctx context.Context, alert hostagent.Alert) (*Report, error) {
	clock := rpc.NewClock(a.Cost, alert.DetectedAt)
	clock.Trace(trace.FromContext(ctx))
	clock.Spend("detection", a.DetectionLatency)
	clock.AlertDelivered()
	return a.contentionRound(ctx, clock, alert)
}

// contentionRound performs one pull–prune–query–correlate round on an
// existing analyzer clock. diagnoseCascade chains several rounds on one
// clock to follow causality backwards.
func (a *Analyzer) contentionRound(ctx context.Context, clock *rpc.Clock, alert hostagent.Alert) (*Report, error) {
	d := &Report{Alert: alert, Clock: clock, PerSwitch: make(map[netsim.NodeID][]Culprit), Kind: KindInconclusive}
	if len(alert.Tuples) == 0 {
		d.Conclusion = "alert carried no telemetry tuples"
		return d, nil
	}

	cands, err := a.pullCandidates(ctx, clock, alert.Tuples)
	if err != nil {
		return aborted(d, ctx, err, "pointer retrieval")
	}

	// Prune per switch, then merge the survivors into the contact set.
	perSwitchKept := make(map[netsim.NodeID][]netsim.IPv4, len(cands))
	var all [][]netsim.IPv4
	pointerTotal := 0
	prunedTotal := 0
	for sw, ips := range cands {
		pointerTotal += len(ips)
		kept, pruned := a.pruneForVictim(sw, alert.Flow, ips)
		perSwitchKept[sw] = kept
		prunedTotal += len(pruned)
		all = append(all, kept)
	}
	contact := dedupIPs(all...)
	d.PointerHosts = pointerTotal
	d.PrunedHosts = prunedTotal
	d.HostsContacted = len(contact)
	d.Consulted = contact

	// Query each surviving host for headers matching any (switch, epochs)
	// tuple of the victim, and correlate. The per-host queries run as one
	// HostBackend round (a bounded-worker fan-out in both the in-memory and
	// HTTP backends); the correlation below merges in sorted host order —
	// host, then tuple, then record — so the report is byte-identical for
	// every worker count and backend. A cancellation mid-round still charges
	// the hosts dispatched so far, so the partial Report carries the cost
	// actually incurred.
	// The uncharged priority probe and the headers fan-out both parent
	// under the diagnosis span charged when the round returns.
	qctx := clock.RemoteCtx(ctx)
	victimPrio := victimPriority(qctx, a, alert)
	queries := make([]hostagent.HeadersQuery, len(alert.Tuples))
	for qi, tup := range alert.Tuples {
		queries[qi] = hostagent.HeadersQuery{Switch: tup.Switch, Epochs: tup.Epochs}
	}
	answers, dispatched, cerr := a.hostBackend().HeadersRound(qctx, a.workers(), contact, queries)
	recCounts := make([]int, dispatched)
	var coldHosts []string
	var coldRecs []int
	sawHigher := false
	sawEqual := false
	for i := 0; i < dispatched; i++ {
		ip := contact[i]
		scanned := 0
		coldSegs := 0
		coldReturned := 0
		for qi, ans := range answers[i] {
			tup := alert.Tuples[qi]
			scanned += len(ans.Records)
			coldSegs += ans.ColdSegments
			coldReturned += ans.ColdReturned
			d.ColdSegments += ans.ColdSegments
			d.ColdSkippedByIndex += ans.ColdSkippedByIndex
			d.TieredSegments += ans.TieredSegments
			for _, rec := range ans.Records {
				if rec.Flow == alert.Flow {
					continue
				}
				er, _ := rec.EpochsAt(tup.Switch)
				if !er.Overlaps(tup.Epochs) {
					continue
				}
				// Contention requires sharing an output queue at this
				// switch, not merely co-traversal.
				if !a.sharesEgress(tup.Switch, alert.Flow.Dst, rec.Flow.Dst) {
					continue
				}
				c := Culprit{
					Flow:     rec.Flow,
					Priority: rec.Priority,
					Bytes:    rec.BytesIn(intersect(er, tup.Epochs)),
					Switch:   tup.Switch,
					Host:     ip,
					Overlap:  intersect(er, tup.Epochs),
				}
				if c.Bytes == 0 {
					c.Bytes = rec.Bytes
				}
				d.PerSwitch[c.Switch] = appendCulprit(d.PerSwitch[c.Switch], c)
				d.Culprits = appendCulprit(d.Culprits, c)
				switch {
				case c.Priority > victimPrio:
					sawHigher = true
				case c.Priority == victimPrio:
					sawEqual = true
				}
			}
		}
		recCounts[i] = scanned
		// A host joins the cold round iff it decoded flushed segments. The
		// round is sized by the records the cold tier RETURNED — the part
		// of the answer that crosses the wire, the same returned-records
		// basis the diagnosis round above uses — not by the host-local
		// decode work (ans.ColdRecords), so compacting segments can never
		// raise the charged cost of an unchanged answer.
		if coldSegs > 0 {
			coldHosts = append(coldHosts, ip.String())
			coldRecs = append(coldRecs, coldReturned)
		}
	}
	if cerr != nil {
		chargePartial(d, "diagnosis", contact, recCounts)
		// The dispatched prefix's cold scans happened too: charge them so a
		// partial report never carries ColdSegments without the matching
		// round (the Report.ColdSegments invariant holds even cancelled).
		if len(coldHosts) > 0 {
			clock.HostsQueried(rpc.PhaseColdReadBack, coldHosts, coldRecs)
		}
		return cancelled(d, ctx, "host queries")
	}
	clock.HostsQueried("diagnosis", hostNames(contact), recCounts)
	// Cold read-back: hosts whose epoch window had aged out of the hot set
	// consulted flushed segments; that telemetry is a second request round
	// trip to those hosts, charged explicitly so virtual-time accounting
	// stays honest. A diagnosis answered entirely from hot windows charges
	// nothing here, keeping all hot-window metrics byte-identical.
	if len(coldHosts) > 0 {
		clock.HostsQueried(rpc.PhaseColdReadBack, coldHosts, coldRecs)
	}

	sortCulprits(d.Culprits)
	for sw := range d.PerSwitch {
		sortCulprits(d.PerSwitch[sw])
	}

	// Classify.
	switchesWithCulprits := 0
	for _, cs := range d.PerSwitch {
		if len(cs) > 0 {
			switchesWithCulprits++
		}
	}
	switch {
	case len(d.Culprits) == 0:
		d.Kind = KindInconclusive
		d.Conclusion = "no contending flows found in the victim's epochs"
	case switchesWithCulprits > 1:
		d.Kind = KindRedLights
		d.Conclusion = fmt.Sprintf(
			"performance degradation accumulated across %d switches: %d contending flow(s) share epochs with the victim",
			switchesWithCulprits, len(d.Culprits))
	case sawHigher:
		d.Kind = KindPriorityContention
		d.Conclusion = fmt.Sprintf(
			"%d higher-priority flow(s) contended with the victim at switch %v during its epochs",
			len(d.Culprits), firstSwitch(d.PerSwitch))
	case sawEqual:
		d.Kind = KindMicroburst
		d.Conclusion = fmt.Sprintf(
			"%d equal-priority flow(s) burst into the victim's queue at switch %v (microburst)",
			len(d.Culprits), firstSwitch(d.PerSwitch))
	default:
		d.Kind = KindInconclusive
		d.Conclusion = "contending flows found, but none at or above the victim's priority"
	}
	return d, nil
}

func victimPriority(ctx context.Context, a *Analyzer, alert hostagent.Alert) uint8 {
	if prio, known := a.hostBackend().Priority(ctx, alert.Host, alert.Flow); known {
		return prio
	}
	return 0
}

func intersect(a, b simtime.EpochRange) simtime.EpochRange {
	lo, hi := a.Lo, a.Hi
	if b.Lo > lo {
		lo = b.Lo
	}
	if b.Hi < hi {
		hi = b.Hi
	}
	return simtime.EpochRange{Lo: lo, Hi: hi}
}

// appendCulprit adds c unless an entry for the same flow at the same switch
// exists (it keeps the one with more bytes).
func appendCulprit(list []Culprit, c Culprit) []Culprit {
	for i := range list {
		if list[i].Flow == c.Flow && list[i].Switch == c.Switch {
			if c.Bytes > list[i].Bytes {
				list[i] = c
			}
			return list
		}
	}
	return append(list, c)
}

// sortCulprits orders by bytes descending, flow key as the tie-break; stable,
// so equal culprits (one flow at two switches) keep their order.
func sortCulprits(cs []Culprit) {
	slices.SortStableFunc(cs, func(a, b Culprit) int {
		if a.Bytes != b.Bytes {
			return cmp.Compare(b.Bytes, a.Bytes)
		}
		return a.Flow.CompareString(b.Flow)
	})
}

func firstSwitch(m map[netsim.NodeID][]Culprit) netsim.NodeID {
	best := netsim.NodeID(-1)
	for sw, cs := range m {
		if len(cs) == 0 {
			continue
		}
		if best == -1 || sw < best {
			best = sw
		}
	}
	return best
}
