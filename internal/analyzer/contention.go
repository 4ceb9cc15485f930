package analyzer

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
	"switchpointer/internal/trace"
)

// diagnoseContention is the §5.1 "too much traffic" procedure, which also
// covers §5.2 "too many red lights" (the same machinery; each culprit names
// the switch where it contended with the victim).
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
	d := &Report{Alert: alert, Clock: clock, Kind: KindInconclusive}
	if len(alert.Tuples) == 0 {
		d.Conclusion = "alert carried no telemetry tuples"
		return d, nil
	}

	cands, err := a.pullCandidates(ctx, clock, alert.Tuples)
	if err != nil {
		return aborted(d, ctx, err, "pointer retrieval")
	}

	// Prune per switch, then merge the survivors into the contact set.
	var all [][]netsim.IPv4
	pointerTotal := 0
	prunedTotal := 0
	for sw, ips := range cands {
		pointerTotal += len(ips)
		kept, pruned := a.pruneForVictim(sw, alert.Flow, ips)
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
	answers, dispatched, cerr := a.HostBack.HeadersRound(qctx, a.Workers, contact, queries)
	recCounts := make([]int, dispatched)
	culprits := &culpritIndex{}
	var coldHosts []netsim.IPv4
	var coldRecs []int
	var corrupt error // an answer whose segment did not read to the end
	sawHigher := false
	sawEqual := false
	for i := 0; i < dispatched && corrupt == nil; i++ {
		ip := contact[i]
		scanned := 0
		coldSegs := 0
		coldReturned := 0
		for qi, ans := range answers[i] {
			tup := alert.Tuples[qi]
			// The answer's records are read in place, never decoded.
			c := flowrec.NewCursor(ans.Segment)
			scanned += c.Len()
			coldSegs += ans.ColdSegments
			coldReturned += ans.ColdReturned
			d.ColdSegments += ans.ColdSegments
			d.ColdSkippedByIndex += ans.ColdSkippedByIndex
			d.TieredSegments += ans.TieredSegments
			for c.Next() {
				flow := c.Flow()
				if flow == alert.Flow {
					continue
				}
				er, _ := c.EpochsAt(tup.Switch)
				if !er.Overlaps(tup.Epochs) {
					continue
				}
				// Contention requires sharing an output queue at this
				// switch, not merely co-traversal.
				if !a.sharesEgress(tup.Switch, alert.Flow.Dst, flow.Dst) {
					continue
				}
				overlap := intersect(er, tup.Epochs)
				cu := Culprit{
					Flow:     flow,
					Priority: c.Priority(),
					Bytes:    c.BytesIn(overlap),
					Switch:   tup.Switch,
					Host:     ip,
					Overlap:  overlap,
				}
				if cu.Bytes == 0 {
					cu.Bytes = c.Bytes()
				}
				culprits.add(d, cu)
				switch {
				case cu.Priority > victimPrio:
					sawHigher = true
				case cu.Priority == victimPrio:
					sawEqual = true
				}
			}
			if err := c.Err(); err != nil {
				corrupt = fmt.Errorf("host %v, answer %d: %w", ip, qi, err)
				break
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
			coldHosts = append(coldHosts, ip)
			coldRecs = append(coldRecs, coldReturned)
		}
	}
	failed := cerr // a cancel, or an answer that failed the client's check
	if failed == nil {
		failed = corrupt
	}
	if failed != nil {
		chargePartial(d, "diagnosis", contact, recCounts)
		// The dispatched prefix's cold scans happened too: charge them so a
		// partial report never carries ColdSegments without the matching
		// round (the Report.ColdSegments invariant holds even cancelled).
		if len(coldHosts) > 0 {
			clock.HostsQueried(rpc.PhaseColdReadBack, coldHosts, coldRecs)
		}
		return aborted(d, ctx, failed, "host queries")
	}
	clock.HostsQueried("diagnosis", contact, recCounts)
	// Cold read-back: hosts whose epoch window had aged out of the hot set
	// consulted flushed segments; that telemetry is a second request round
	// trip to those hosts, charged explicitly so virtual-time accounting
	// stays honest. A diagnosis answered entirely from hot windows charges
	// nothing here, keeping all hot-window metrics byte-identical.
	if len(coldHosts) > 0 {
		clock.HostsQueried(rpc.PhaseColdReadBack, coldHosts, coldRecs)
	}

	sortCulprits(d.Culprits)

	// Classify.
	switchesWithCulprits, lowest := culpritSwitches(d.Culprits)
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
			len(d.Culprits), lowest)
	case sawEqual:
		d.Kind = KindMicroburst
		d.Conclusion = fmt.Sprintf(
			"%d equal-priority flow(s) burst into the victim's queue at switch %v (microburst)",
			len(d.Culprits), lowest)
	default:
		d.Kind = KindInconclusive
		d.Conclusion = "contending flows found, but none at or above the victim's priority"
	}
	return d, nil
}

func victimPriority(ctx context.Context, a *Analyzer, alert hostagent.Alert) uint8 {
	if prio, known := a.HostBack.Priority(ctx, alert.Host, alert.Flow); known {
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

// culpritIndex dedups a report's culprits by (flow, switch). slots is an
// open-addressing hash table, at most half full, of 1 + a culprit's position
// in Report.Culprits (0 = empty). At the ~800 culprits of a large diagnosis
// it allocates a third of what a Go map would.
type culpritIndex struct {
	slots []int32
}

// add appends c to d.Culprits unless the flow is already a culprit at that
// switch; then the entry with more bytes stays.
func (ix *culpritIndex) add(d *Report, c Culprit) {
	if 2*(len(d.Culprits)+1) > len(ix.slots) {
		ix.rehash(d.Culprits)
	}
	slot, p := ix.find(d.Culprits, c.Flow, c.Switch)
	if p >= 0 {
		if c.Bytes > d.Culprits[p].Bytes {
			d.Culprits[p] = c
		}
		return
	}
	ix.slots[slot] = int32(len(d.Culprits)) + 1
	d.Culprits = append(d.Culprits, c)
}

// find returns the slot holding (flow, sw) and its position in cs, or the
// empty slot it would take and −1.
func (ix *culpritIndex) find(cs []Culprit, flow netsim.FlowKey, sw netsim.NodeID) (slot, pos int) {
	h := uint64(flow.Src)<<32 | uint64(flow.Dst)
	h = (h^h>>30)*0xbf58476d1ce4e5b9 ^ uint64(flow.SrcPort)<<48 ^ uint64(flow.DstPort)<<32 ^ uint64(flow.Proto)<<24 ^ uint64(uint32(sw))
	h = (h ^ h>>27) * 0x94d049bb133111eb
	mask := len(ix.slots) - 1
	for slot = int(h^h>>31) & mask; ; slot = (slot + 1) & mask {
		pos = int(ix.slots[slot]) - 1
		if pos < 0 || (cs[pos].Flow == flow && cs[pos].Switch == sw) {
			return slot, pos
		}
	}
}

// rehash rebuilds the table with room for twice the culprits cs holds.
func (ix *culpritIndex) rehash(cs []Culprit) {
	n := 64
	for n < 4*len(cs) {
		n *= 2
	}
	ix.slots = make([]int32, n)
	for i, c := range cs {
		slot, _ := ix.find(cs, c.Flow, c.Switch)
		ix.slots[slot] = int32(i) + 1
	}
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

// culpritSwitches returns how many distinct switches the culprits name and
// the lowest of them (−1 when there are none).
func culpritSwitches(cs []Culprit) (n int, lowest netsim.NodeID) {
	var seen []netsim.NodeID
	for _, c := range cs {
		if !slices.Contains(seen, c.Switch) {
			seen = append(seen, c.Switch)
		}
	}
	if len(seen) == 0 {
		return 0, -1
	}
	return len(seen), slices.Min(seen)
}
