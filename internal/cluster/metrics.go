// Self-observability plane (metrics.go): per-role metric registries over a
// testbed's agents, plus the admission/diagnosis instruments. Deep
// deterministic packages (store, pointer, agents, statesync) never import
// the metrics package — they expose synchronized accessors, and the
// registries built here read them at scrape time through Func families, so
// a scrape can never perturb a replay and every frozen virtual-time metric
// renders byte-identically across scrapes.
package cluster

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/metrics"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/statesync"
	"switchpointer/internal/switchagent"
	"switchpointer/internal/trace"
)

// sortedHostAgents fixes the scrape iteration order once: host agents by IP.
func sortedHostAgents(tb *scenario.Testbed) ([]string, []*hostagent.Agent) {
	ips := make([]netsim.IPv4, 0, len(tb.HostAgents))
	for ip := range tb.HostAgents {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	labels := make([]string, len(ips))
	agents := make([]*hostagent.Agent, len(ips))
	for i, ip := range ips {
		labels[i] = ip.String()
		agents[i] = tb.HostAgents[ip]
	}
	return labels, agents
}

// sortedSwitchAgents fixes the scrape iteration order once: switch agents by
// node ID.
func sortedSwitchAgents(tb *scenario.Testbed) ([]string, []*switchagent.Agent) {
	ids := make([]netsim.NodeID, 0, len(tb.SwitchAgents))
	for id := range tb.SwitchAgents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	labels := make([]string, len(ids))
	agents := make([]*switchagent.Agent, len(ids))
	for i, id := range ids {
		labels[i] = strconv.Itoa(int(id))
		agents[i] = tb.SwitchAgents[id]
	}
	return labels, agents
}

// registerReadiness adds the statesync progress families every role serves.
// A nil rd (a daemon that needs no bootstrap) reports ready=1 and zero
// progress — the families are always present so smoke tests can grep them.
func registerReadiness(reg *metrics.Registry, rd *statesync.Readiness) {
	reg.GaugeFunc("spd_ready", "1 once the daemon is live (bootstrap finished or never needed), 0 while syncing.", nil, func(emit metrics.Emit) {
		if rd == nil || rd.Live() {
			emit(1)
		} else {
			emit(0)
		}
	})
	progress := func(pick func(bs, br, ib, ir int64) int64) func(metrics.Emit) {
		return func(emit metrics.Emit) {
			if rd == nil {
				emit(0)
				return
			}
			emit(float64(pick(rd.Progress())))
		}
	}
	reg.CounterFunc("spd_statesync_bootstrap_segments_total", "Peer snapshot segments absorbed during bootstrap.", nil,
		progress(func(bs, _, _, _ int64) int64 { return bs }))
	reg.CounterFunc("spd_statesync_bootstrap_records_total", "Records absorbed from peer snapshot segments.", nil,
		progress(func(_, br, _, _ int64) int64 { return br }))
	reg.CounterFunc("spd_statesync_ingest_batches_total", "Live ingest batches applied.", nil,
		progress(func(_, _, ib, _ int64) int64 { return ib }))
	reg.CounterFunc("spd_statesync_ingest_records_total", "Records applied from the live ingest feed.", nil,
		progress(func(_, _, _, ir int64) int64 { return ir }))
}

// hostRegistry builds the host daemon's metric registry: per-agent store
// occupancy and shard-lock contention, telemetry absorption, cold read-back
// work, the cold segment log's maintenance counters, and bootstrap/ingest
// progress. Everything is collected at scrape time from synchronized
// accessors, so the registry is safe while the daemon serves.
func hostRegistry(tb *scenario.Testbed, rd *statesync.Readiness) *metrics.Registry {
	reg := metrics.NewRegistry()
	labels, agents := sortedHostAgents(tb)
	perHost := []string{"host"}
	each := func(get func(ag *hostagent.Agent) float64) func(metrics.Emit) {
		return func(emit metrics.Emit) {
			for i, ag := range agents {
				emit(get(ag), labels[i])
			}
		}
	}

	reg.GaugeFunc("spd_store_resident_records", "Flow records resident in the hot telemetry store.", perHost,
		each(func(ag *hostagent.Agent) float64 { return float64(ag.Store.Len()) }))
	reg.CounterFunc("spd_store_evicted_records_total", "Records evicted to cold storage by retention.", perHost,
		each(func(ag *hostagent.Agent) float64 { return float64(ag.Store.Evicted()) }))
	reg.GaugeFunc("spd_store_shard_generations", "Per-switch memo invalidations (a record joined or left a switch in some shard).", perHost,
		each(func(ag *hostagent.Agent) float64 { return float64(ag.Store.Generations()) }))
	reg.CounterFunc("spd_store_lock_acquires_total", "Shard lock acquisitions on the record write path.", perHost,
		each(func(ag *hostagent.Agent) float64 { acq, _ := ag.Store.LockStats(); return float64(acq) }))
	reg.CounterFunc("spd_store_lock_contended_total", "Shard lock acquisitions that had to wait (contended TryLock).", perHost,
		each(func(ag *hostagent.Agent) float64 { _, cont := ag.Store.LockStats(); return float64(cont) }))

	reg.CounterFunc("spd_absorbed_packets_total", "Telemetry-tagged packets absorbed by the host agent.", perHost,
		each(func(ag *hostagent.Agent) float64 { return float64(ag.Received) }))
	reg.CounterFunc("spd_decode_errors_total", "Packets whose telemetry tag could not be decoded.", perHost,
		each(func(ag *hostagent.Agent) float64 { return float64(ag.DecodeErrors) }))

	reg.CounterFunc("spd_cold_segments_decoded_total", "Cold segments decoded to answer aged-out epoch windows.", perHost,
		each(func(ag *hostagent.Agent) float64 { return float64(ag.ColdStats().Segments) }))
	reg.CounterFunc("spd_cold_records_scanned_total", "Records decoded from cold segments.", perHost,
		each(func(ag *hostagent.Agent) float64 { return float64(ag.ColdStats().Records) }))
	reg.CounterFunc("spd_cold_records_returned_total", "Cold records that matched a query and were returned.", perHost,
		each(func(ag *hostagent.Agent) float64 { return float64(ag.ColdStats().Returned) }))
	reg.CounterFunc("spd_cold_segments_skipped_total", "Cold segments excluded by manifest indexes without decoding.", perHost,
		each(func(ag *hostagent.Agent) float64 { return float64(ag.ColdStats().SkippedByIndex) }))
	reg.CounterFunc("spd_cold_segments_tiered_total", "Query-visible cold segments whose payloads were tiered out.", perHost,
		each(func(ag *hostagent.Agent) float64 { return float64(ag.ColdStats().Tiered) }))

	eachLog := func(get func(c statesync.Counters) uint64) func(metrics.Emit) {
		return func(emit metrics.Emit) {
			for i, ag := range agents {
				var c statesync.Counters
				if l, ok := ag.ColdReader().(*statesync.SegmentLog); ok && l != nil {
					c = l.Counters()
				}
				emit(float64(get(c)), labels[i])
			}
		}
	}
	reg.CounterFunc("spd_coldlog_segment_writes_total", "Segments flushed into the cold log.", perHost,
		eachLog(func(c statesync.Counters) uint64 { return c.SegmentWrites }))
	reg.CounterFunc("spd_coldlog_segment_decodes_total", "Cold log segment payload decodes (read-back cost).", perHost,
		eachLog(func(c statesync.Counters) uint64 { return c.SegmentDecodes }))
	reg.CounterFunc("spd_coldlog_compact_runs_total", "Cold log compaction passes completed.", perHost,
		eachLog(func(c statesync.Counters) uint64 { return c.CompactRuns }))
	reg.CounterFunc("spd_coldlog_compacted_segments_total", "Input segments consumed by compaction.", perHost,
		eachLog(func(c statesync.Counters) uint64 { return c.CompactedSegments }))
	reg.CounterFunc("spd_coldlog_tiered_segments_total", "Segments aged out of the cold tier by tiering.", perHost,
		eachLog(func(c statesync.Counters) uint64 { return c.TieredSegments }))

	registerReadiness(reg, rd)
	return reg
}

// SwitchRegistry builds the switch daemon's metric registry: pointer pull
// service counts (total and approximate), the pointer structure's resident
// and full switch-memory footprint, sealed-slot push accounting, and the
// pushed control-store depth.
func SwitchRegistry(tb *scenario.Testbed, rd *statesync.Readiness) *metrics.Registry {
	reg := metrics.NewRegistry()
	labels, agents := sortedSwitchAgents(tb)
	perSwitch := []string{"switch"}
	each := func(get func(ag *switchagent.Agent) float64) func(metrics.Emit) {
		return func(emit metrics.Emit) {
			for i, ag := range agents {
				emit(get(ag), labels[i])
			}
		}
	}

	reg.CounterFunc("spd_pointer_pulls_total", "Analyzer pointer pulls served.", perSwitch,
		each(func(ag *switchagent.Agent) float64 { pulls, _ := ag.PullCounts(); return float64(pulls) }))
	reg.CounterFunc("spd_pointer_approx_pulls_total", "Pulls answered approximately (sketch backend or approx control-store slot).", perSwitch,
		each(func(ag *switchagent.Agent) float64 { _, approx := ag.PullCounts(); return float64(approx) }))
	reg.GaugeFunc("spd_pointer_resident_bytes", "Pointer structure resident bytes (live slots).", perSwitch,
		each(func(ag *switchagent.Agent) float64 { res, _ := ag.PointerFootprint(); return float64(res) }))
	reg.GaugeFunc("spd_switch_memory_bytes", "Full switch-memory footprint: pointer sets plus installed MPH.", perSwitch,
		each(func(ag *switchagent.Agent) float64 { _, mem := ag.PointerFootprint(); return float64(mem) }))
	reg.CounterFunc("spd_pointer_pushed_slots_total", "Sealed top-level slots pushed to persistent storage.", perSwitch,
		each(func(ag *switchagent.Agent) float64 { n, _ := ag.PushStats(); return float64(n) }))
	reg.CounterFunc("spd_pointer_pushed_bytes_total", "Encoded bytes of pushed sealed slots.", perSwitch,
		each(func(ag *switchagent.Agent) float64 { _, b := ag.PushStats(); return float64(b) }))
	reg.GaugeFunc("spd_control_store_slots", "Pushed slots resident in the control store.", perSwitch,
		each(func(ag *switchagent.Agent) float64 { return float64(ag.ControlStoreLen()) }))

	registerReadiness(reg, rd)
	return reg
}

// diagnosis latency buckets: virtual diagnosis cost sits in the tens of
// microseconds to tens of milliseconds; wall latency on a loopback cluster
// sits in the same decades.
var latencyBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// AnalyzerRegistry builds the analyzer daemon's metric registry: admission
// occupancy/outcome families read from the controller at scrape time, plus
// the push-style queue-wait and per-query-kind diagnosis instruments wired
// into the controller via Observe.
func AnalyzerRegistry(ad *Admission) *metrics.Registry {
	reg := metrics.NewRegistry()
	stat := func(pick func(AdmissionStats) float64) func(metrics.Emit) {
		return func(emit metrics.Emit) { emit(pick(ad.Stats())) }
	}
	reg.GaugeFunc("spd_admission_in_flight", "Diagnoses executing right now.", nil,
		stat(func(s AdmissionStats) float64 { return float64(s.InFlight) }))
	reg.GaugeFunc("spd_admission_queued", "Diagnoses waiting for a slot right now.", nil,
		stat(func(s AdmissionStats) float64 { return float64(s.Queued) }))
	reg.CounterFunc("spd_admission_admitted_total", "Queries that started executing.", nil,
		stat(func(s AdmissionStats) float64 { return float64(s.Admitted) }))
	reg.CounterFunc("spd_admission_rejected_total", "Queries refused because the queue was full.", nil,
		stat(func(s AdmissionStats) float64 { return float64(s.Rejected) }))
	reg.CounterFunc("spd_admission_expired_total", "Waiters that hit the queue-wait bound.", nil,
		stat(func(s AdmissionStats) float64 { return float64(s.Expired) }))
	reg.CounterFunc("spd_admission_cancelled_total", "Waiters whose context ended before a slot freed.", nil,
		stat(func(s AdmissionStats) float64 { return float64(s.Cancelled) }))
	reg.GaugeFunc("spd_admission_max_in_flight", "Configured concurrency bound.", nil,
		func(emit metrics.Emit) { emit(float64(ad.cfg.MaxInFlight)) })
	reg.GaugeFunc("spd_admission_max_queued", "Configured queue bound.", nil,
		func(emit metrics.Emit) { emit(float64(ad.cfg.MaxQueued)) })
	reg.GaugeFunc("spd_admission_queue_depth", "Waiters per priority class right now.", []string{"class"},
		func(emit metrics.Emit) {
			depths := ad.queueDepths()
			for p := 0; p < numPriorities; p++ {
				emit(float64(depths[p]), priorityName(p))
			}
		})
	ad.Observe(reg)
	registerReadiness(reg, nil)
	return reg
}

// priorityName labels an admission priority class for metrics.
func priorityName(p int) string {
	switch p {
	case prioUrgent:
		return "urgent"
	case prioAlert:
		return "alert"
	default:
		return "background"
	}
}

// admissionObs holds the push-style instruments the admission controller
// drives: queue-wait latency by class, and per-query-kind diagnosis
// outcomes, latency (virtual and wall), and rpc.Clock round/charge totals
// recorded when Analyzer.Run completes.
type admissionObs struct {
	queueWait *metrics.HistogramVec

	diagTotal       *metrics.CounterVec
	diagErrors      *metrics.CounterVec
	diagVirtual     *metrics.HistogramVec
	diagWall        *metrics.HistogramVec
	pointerRounds   *metrics.CounterVec
	pointersCharged *metrics.CounterVec
	queryRounds     *metrics.CounterVec
	coldRounds      *metrics.CounterVec
}

// Observe attaches metric instruments to the controller. Pass a registry to
// instrument queue waits and diagnosis completions; uninstrumented
// controllers (tests, benchmarks that must stay wall-clock-free) skip all
// recording.
func (ad *Admission) Observe(reg *metrics.Registry) {
	o := &admissionObs{
		queueWait:       reg.Histogram("spd_admission_queue_wait_seconds", "Wall time a query waited for an execution slot.", latencyBuckets, "class"),
		diagTotal:       reg.Counter("spd_diagnosis_total", "Diagnoses executed, by query kind.", "kind"),
		diagErrors:      reg.Counter("spd_diagnosis_errors_total", "Diagnoses that returned an error (including partial reports).", "kind"),
		diagVirtual:     reg.Histogram("spd_diagnosis_virtual_seconds", "Virtual-time diagnosis cost (rpc.Clock total).", latencyBuckets, "kind"),
		diagWall:        reg.Histogram("spd_diagnosis_wall_seconds", "Wall-clock diagnosis latency.", latencyBuckets, "kind"),
		pointerRounds:   reg.Counter("spd_diagnosis_pointer_rounds_total", "Pointer pull rounds charged, by query kind.", "kind"),
		pointersCharged: reg.Counter("spd_diagnosis_pointers_charged_total", "Pointer pulls charged, by query kind.", "kind"),
		queryRounds:     reg.Counter("spd_diagnosis_query_rounds_total", "Host query rounds charged, by query kind.", "kind"),
		coldRounds:      reg.Counter("spd_diagnosis_cold_rounds_total", "Cold read-back rounds charged, by query kind.", "kind"),
	}
	ad.obs.Store(o)
}

// recordDiagnosis accounts one completed Analyzer.Run.
func (o *admissionObs) recordDiagnosis(q analyzer.Query, rep *analyzer.Report, err error, wall time.Duration) {
	kind := q.Name()
	o.diagTotal.With(kind).Inc()
	if err != nil {
		o.diagErrors.With(kind).Inc()
	}
	o.diagWall.With(kind).Observe(wall.Seconds())
	if rep != nil && rep.Clock != nil {
		o.diagVirtual.With(kind).Observe(rep.Clock.Total().Seconds())
		o.pointerRounds.With(kind).Add(float64(rep.Clock.PointerRounds()))
		o.pointersCharged.With(kind).Add(float64(rep.Clock.PointersCharged()))
		o.queryRounds.With(kind).Add(float64(rep.Clock.QueryRounds()))
		o.coldRounds.With(kind).Add(float64(rep.Clock.ColdRounds()))
	}
}

// HostAgentStats is one host agent's row in the host daemon's GET /stats
// document.
type HostAgentStats struct {
	Host             string `json:"host"`
	AbsorbedPackets  uint64 `json:"absorbed_packets"`
	DecodeErrors     uint64 `json:"decode_errors"`
	ResidentRecords  int    `json:"resident_records"`
	EvictedRecords   uint64 `json:"evicted_records"`
	ShardGenerations uint64 `json:"shard_generations"`
	LockAcquires     uint64 `json:"lock_acquires"`
	LockContended    uint64 `json:"lock_contended"`

	ColdSegmentsDecoded uint64 `json:"cold_segments_decoded"`
	ColdRecordsReturned uint64 `json:"cold_records_returned"`
	ColdSegmentsSkipped uint64 `json:"cold_segments_skipped"`
}

// HostStatsDoc is the host daemon's GET /stats body.
type HostStatsDoc struct {
	State             string           `json:"state"`
	BootstrapSegments int64            `json:"bootstrap_segments"`
	BootstrapRecords  int64            `json:"bootstrap_records"`
	IngestBatches     int64            `json:"ingest_batches"`
	IngestRecords     int64            `json:"ingest_records"`
	Agents            []HostAgentStats `json:"agents"`
}

// HostStatsHandler serves the host daemon's GET /stats: one row per agent
// (absorption, store occupancy, lock contention, cold read-back) plus the
// daemon's bootstrap/ingest progress, agents sorted by IP.
func HostStatsHandler(tb *scenario.Testbed, rd *statesync.Readiness) http.Handler {
	labels, agents := sortedHostAgents(tb)
	return rpc.Endpoint(nil, "stats", 0, func(context.Context, *rpc.Empty) (HostStatsDoc, []trace.Attr, error) {
		doc := HostStatsDoc{State: statesync.StateLive.String(), Agents: make([]HostAgentStats, 0, len(agents))}
		if rd != nil {
			doc.State = rd.State().String()
			doc.BootstrapSegments, doc.BootstrapRecords, doc.IngestBatches, doc.IngestRecords = rd.Progress()
		}
		for i, ag := range agents {
			acq, cont := ag.Store.LockStats()
			cold := ag.ColdStats()
			doc.Agents = append(doc.Agents, HostAgentStats{
				Host:                labels[i],
				AbsorbedPackets:     ag.Received,
				DecodeErrors:        ag.DecodeErrors,
				ResidentRecords:     ag.Store.Len(),
				EvictedRecords:      ag.Store.Evicted(),
				ShardGenerations:    ag.Store.Generations(),
				LockAcquires:        acq,
				LockContended:       cont,
				ColdSegmentsDecoded: cold.Segments,
				ColdRecordsReturned: cold.Returned,
				ColdSegmentsSkipped: cold.SkippedByIndex,
			})
		}
		return doc, nil, nil
	})
}

// SwitchAgentStats is one switch agent's row in the switch daemon's GET
// /stats document.
type SwitchAgentStats struct {
	Switch            string `json:"switch"`
	PointerPulls      uint64 `json:"pointer_pulls"`
	ApproxPulls       uint64 `json:"approx_pulls"`
	ResidentBytes     int    `json:"resident_bytes"`
	MemoryBytes       int    `json:"memory_bytes"`
	PushedSlots       uint64 `json:"pushed_slots"`
	PushedBytes       uint64 `json:"pushed_bytes"`
	ControlStoreSlots int    `json:"control_store_slots"`
}

// SwitchStatsDoc is the switch daemon's GET /stats body.
type SwitchStatsDoc struct {
	State  string             `json:"state"`
	Agents []SwitchAgentStats `json:"agents"`
}

// SwitchStatsHandler serves the switch daemon's GET /stats: one row per
// agent (pull service, pointer footprint, push accounting, control-store
// depth), agents sorted by switch ID.
func SwitchStatsHandler(tb *scenario.Testbed, rd *statesync.Readiness) http.Handler {
	labels, agents := sortedSwitchAgents(tb)
	return rpc.Endpoint(nil, "stats", 0, func(context.Context, *rpc.Empty) (SwitchStatsDoc, []trace.Attr, error) {
		doc := SwitchStatsDoc{State: statesync.StateLive.String(), Agents: make([]SwitchAgentStats, 0, len(agents))}
		if rd != nil {
			doc.State = rd.State().String()
		}
		for i, ag := range agents {
			pulls, approx := ag.PullCounts()
			res, mem := ag.PointerFootprint()
			slots, bytes := ag.PushStats()
			doc.Agents = append(doc.Agents, SwitchAgentStats{
				Switch:            labels[i],
				PointerPulls:      pulls,
				ApproxPulls:       approx,
				ResidentBytes:     res,
				MemoryBytes:       mem,
				PushedSlots:       slots,
				PushedBytes:       bytes,
				ControlStoreSlots: ag.ControlStoreLen(),
			})
		}
		return doc, nil, nil
	})
}
