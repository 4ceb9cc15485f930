package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
)

// heavyGeometry sizes diag-heavy's preloaded state, per host.
type heavyGeometry struct {
	records    int // resident records Put into the store
	overlap    int // of those, how many overlap the alert's epoch windows
	segments   int // on-disk cold segments
	segRecords int // records per segment
	matches    int // records per overlapping segment that match the windows
}

// The gated geometry: 20 000 resident records per host, 0.25 % of them in
// the alert's windows; 32 epoch-banded segments of 256 records, of which two
// hold cross-fabric flows overlapping the windows (25 matches each) and one
// holds same-rack flows overlapping them (decoded for the rack switch's
// tuple, excluded by the manifest's switch set for the far switch's).
var (
	heavyGated = heavyGeometry{records: 20_000, overlap: 50, segments: 32, segRecords: 256, matches: 25}
	heavyQuick = heavyGeometry{records: 1_000, overlap: 5, segments: 8, segRecords: 32, matches: 5}
)

// heavyState is what the preload left behind, for the layer metrics.
type heavyState struct {
	logs    map[netsim.IPv4]*statesync.SegmentLog
	writeUs []float64  // one WriteSegment each
	base    coldTotals // the cold tier's counters when the traced window began
}

// preloadHeavy fills every host's store and cold tier around the alert. All
// generated flows end at the host that holds their record and start at a
// real peer, so their paths are the topology's own; background records sit
// at epochs far after the alert's windows, overlapping ones inside them.
func preloadHeavy(tb *scenario.Testbed, alert hostagent.Alert, g heavyGeometry, seed int64, dir string) (*heavyState, error) {
	st := &heavyState{logs: make(map[netsim.IPv4]*statesync.SegmentLog)}
	window := make(map[netsim.NodeID]simtime.EpochRange, len(alert.Tuples))
	all := alert.Tuples[0].Epochs
	for _, tup := range alert.Tuples {
		window[tup.Switch] = tup.Epochs
		all = all.Union(tup.Epochs)
	}
	// Switch clocks differ by at most one epoch; 1000 epochs is far.
	later := all.Hi + 1000

	hosts := tb.Topo.Hosts()
	for hi, h := range hosts {
		rng := rand.New(rand.NewSource(seed<<8 + int64(hi)))
		tor, _ := tb.Topo.ToROf(h.IP())
		var cross, rack []netsim.IPv4
		for _, peer := range hosts {
			switch peerTor, _ := tb.Topo.ToROf(peer.IP()); {
			case peer == h:
			case peerTor == tor:
				rack = append(rack, peer.IP())
			default:
				cross = append(cross, peer.IP())
			}
		}
		if len(cross) == 0 || len(rack) == 0 {
			return nil, fmt.Errorf("diag-heavy: host %s has no cross-fabric or no same-rack peer", h.IP())
		}

		serial := 0
		// record makes the next generated flow from one of peers. at gives
		// the epochs it was seen at a switch; inWindow marks a flow that
		// contended with the victim, which outranks it as the bursts do.
		record := func(peers []netsim.IPv4, inWindow bool, at func(sw netsim.NodeID) simtime.EpochRange) (*flowrec.Record, error) {
			flow := netsim.FlowKey{Src: peers[serial%len(peers)], Dst: h.IP(),
				SrcPort: uint16(1024 + serial%50_000), DstPort: uint16(9000 + serial/50_000), Proto: netsim.ProtoUDP}
			serial++
			path, err := tb.Topo.PathOf(flow)
			if err != nil {
				return nil, err
			}
			r := flowrec.New(flow)
			r.Path = path
			r.TagIdx = 0
			r.Priority = scenario.PrioLow
			if inWindow {
				r.Priority = scenario.PrioHigh
			}
			for _, sw := range path {
				r.Epochs = append(r.Epochs, at(sw))
			}
			r.Bytes = uint64(1500 * (1 + rng.Intn(4000)))
			r.Pkts = r.Bytes / 1500
			r.EpochBytes[r.Epochs[0].Lo] = r.Bytes
			r.FirstSeen = simtime.EpochStart(r.Epochs[0].Lo, tb.Opt.Alpha)
			r.LastSeen = simtime.EpochStart(r.Epochs[0].Hi+1, tb.Opt.Alpha)
			return r, nil
		}
		inWindow := func(sw netsim.NodeID) simtime.EpochRange {
			if w, ok := window[sw]; ok {
				return w
			}
			return all
		}
		band := func(lo simtime.Epoch, width int) func(netsim.NodeID) simtime.EpochRange {
			return func(netsim.NodeID) simtime.EpochRange {
				e := lo + simtime.Epoch(rng.Intn(width))
				return simtime.EpochRange{Lo: e, Hi: e + 1}
			}
		}

		// The resident set.
		ag := tb.HostAgents[h.IP()]
		overlapping := make(map[int]bool, g.overlap)
		for _, i := range rng.Perm(g.records)[:g.overlap] {
			overlapping[i] = true
		}
		for i := 0; i < g.records; i++ {
			at := band(later, 5000)
			if overlapping[i] {
				at = inWindow
			}
			r, err := record(cross, overlapping[i], at)
			if err != nil {
				return nil, err
			}
			ag.Store.Put(r)
		}

		// The cold tier, in the order eviction sweeps would have written it.
		log, err := statesync.NewSegmentLog(filepath.Join(dir, h.IP().String()))
		if err != nil {
			return nil, err
		}
		st.logs[h.IP()] = log
		for seg := 0; seg < g.segments; seg++ {
			recs := make([]*flowrec.Record, 0, g.segRecords)
			for i := 0; i < g.segRecords; i++ {
				peers, matching := cross, false
				var at func(netsim.NodeID) simtime.EpochRange
				switch {
				case seg < 2 && i < g.matches:
					at, matching = inWindow, true
				case seg < 2:
					// The same sweep's other flows: soon after the windows.
					at = band(all.Hi+30, 10)
				case seg == 2:
					peers, at = rack, inWindow
				default:
					at = band(later+10_000+simtime.Epoch(seg)*100, 50)
				}
				r, err := record(peers, matching, at)
				if err != nil {
					return nil, err
				}
				recs = append(recs, r)
			}
			var buf bytes.Buffer
			if err := store.EncodeSegment(&buf, recs); err != nil {
				return nil, err
			}
			m := store.NewSegmentManifest(recs)
			m.Bytes = buf.Len()
			t0 := wallNow()
			if err := log.WriteSegment(m, buf.Bytes()); err != nil {
				return nil, err
			}
			st.writeUs = append(st.writeUs, float64(wallNow().Sub(t0))/1e3)
		}
		ag.SetColdReader(log)
	}
	return st, nil
}

// setupDiagHeavy: the priority (m=8) contention query over a trio whose
// host stores and cold tiers hold far more than the answer.
func setupDiagHeavy(p params) (*instance, error) {
	ctx := context.Background()
	b, err := buildScenario(ctx, "priority", 8, 0, p, 0, 1)
	if err != nil {
		return nil, err
	}
	tb := b.s.Testbed
	cleanup := tb.Close
	fail := func(err error) (*instance, error) {
		cleanup()
		return nil, err
	}
	alert := b.query.(analyzer.ContentionQuery).Alert
	if len(alert.Tuples) == 0 {
		return fail(fmt.Errorf("diag-heavy: the alert carries no tuples"))
	}
	if err := os.MkdirAll(p.scratch, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(p.scratch, "diag-heavy-")
	if err != nil {
		return fail(err)
	}
	cleanup = func() {
		tb.Close()
		os.RemoveAll(dir)
	}
	g := heavyGated
	if p.quick {
		g = heavyQuick
	}
	hs, err := preloadHeavy(tb, alert, g, p.seed, dir)
	if err == nil {
		// The oracle is the in-memory analyzer over the preloaded state.
		err = b.freezeOracle(ctx)
	}
	if err != nil {
		return fail(err)
	}
	tr, inst, err := newTrio(b)
	if err != nil {
		return fail(err)
	}
	closeTrio := inst.close
	inst.close = func() {
		closeTrio()
		os.RemoveAll(dir)
	}

	inst.mark = func() { hs.base = hs.totals(tb) }
	inst.layers = func(t *tracer, out map[string]float64) error { return hs.layers(ctx, tr, t, p.quick, out) }
	return inst, nil
}

// coldTotals sums the cold tier's own cumulative counters over every host:
// physical segment decodes from the logs, per-query accounting from the
// agents.
type coldTotals struct{ decodes, skipped, records uint64 }

func (hs *heavyState) totals(tb *scenario.Testbed) coldTotals {
	var c coldTotals
	for ip, log := range hs.logs {
		c.decodes += log.Counters().SegmentDecodes
		cs := tb.HostAgents[ip].ColdStats()
		c.skipped += cs.SkippedByIndex
		c.records += cs.Records
	}
	return c
}

// layers adds the store scan and the cold tier to the trio's layers: exact
// counts over the traced window first (the rungs below move the counters),
// then rungs with the queries the host round carried.
func (hs *heavyState) layers(ctx context.Context, tr *trio, t *tracer, quick bool, out map[string]float64) error {
	tb := tr.b.s.Testbed
	cold, ops := hs.totals(tb), float64(t.ops)
	out["statesync.segments_decoded_per_op"] = float64(cold.decodes-hs.base.decodes) / ops
	out["statesync.segments_skipped_per_op"] = float64(cold.skipped-hs.base.skipped) / ops
	out["statesync.cold_records_per_op"] = float64(cold.records-hs.base.records) / ops
	out["statesync.write_segment_us"] = median(append([]float64(nil), hs.writeUs...))
	if err := tr.layers(t, quick, out); err != nil {
		return err
	}

	hosts, queries := tr.last.headersHosts, tr.last.headersQueries
	if len(hosts) == 0 || len(queries) == 0 {
		return fmt.Errorf("diag-heavy: the traced window saw no headers round")
	}
	scanned := 0
	for _, ip := range hosts {
		for _, q := range queries {
			scanned += len(tb.HostAgents[ip].Store.BySwitch(q.Switch))
		}
	}
	out["store.records_scanned_per_op"] = float64(scanned)
	ag := tb.HostAgents[hosts[0]]
	out["hostagent.query_headers_us"] = rungUs(quick, 20, func(int) { rungSink = ag.QueryHeadersMulti(ctx, queries) })
	out["store.query_by_switch_ns_per_rec"] = scanRung(quick, ag.Store, queries[0].Switch)

	// One overlapping segment, read back through the log (file read +
	// decode) and decoded from memory (decode alone).
	log := hs.logs[hosts[0]]
	var recs []*flowrec.Record
	if err := log.ReadSegment(0, func(r *flowrec.Record) { recs = append(recs, r) }); err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := store.EncodeSegment(&payload, recs); err != nil {
		return err
	}
	var rungErr error
	out["store.decode_segment_us"] = rungUs(quick, 40, func(int) {
		if _, err := store.DecodeSegment(bytes.NewReader(payload.Bytes())); err != nil {
			rungErr = err
		}
	})
	out["statesync.read_segment_us"] = rungUs(quick, 40, func(int) {
		if err := log.ReadSegment(0, func(*flowrec.Record) {}); err != nil {
			rungErr = err
		}
	})
	return rungErr
}
