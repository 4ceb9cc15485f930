// Package hostagent implements SwitchPointer's end-host component (§4.2):
// the PathDump-derived agent that decodes telemetry from arriving packets,
// maintains flow records, monitors per-flow throughput at millisecond
// granularity, triggers alerts on spurious events, and executes the
// analyzer's distributed queries.
package hostagent

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/header"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
	"switchpointer/internal/topo"
	"switchpointer/internal/transport"
)

// Config tunes the agent's trigger engine.
type Config struct {
	// MeterInterval is the throughput sampling period (paper: 1 ms).
	MeterInterval simtime.Time
	// DropFraction is the relative throughput drop that raises an alert
	// (paper: 0.5, i.e. "drop of more than 50%").
	DropFraction float64
	// MinActiveGbps arms the trigger only for flows that were actually
	// moving data; idle flows and ACK streams stay quiet.
	MinActiveGbps float64
	// Cooldown suppresses repeated alerts for the same flow within the
	// given window, so one event produces one alert.
	Cooldown simtime.Time
}

func (c Config) withDefaults() Config {
	if c.MeterInterval == 0 {
		c.MeterInterval = simtime.Millisecond
	}
	if c.DropFraction == 0 {
		c.DropFraction = 0.5
	}
	if c.MinActiveGbps == 0 {
		c.MinActiveGbps = 0.05
	}
	if c.Cooldown == 0 {
		c.Cooldown = 20 * simtime.Millisecond
	}
	return c
}

// AlertKind classifies what the trigger saw.
type AlertKind uint8

// Alert kinds.
const (
	AlertThroughputDrop AlertKind = iota + 1
	AlertTimeout
)

func (k AlertKind) String() string {
	switch k {
	case AlertThroughputDrop:
		return "throughput-drop"
	case AlertTimeout:
		return "tcp-timeout"
	default:
		return fmt.Sprintf("alert(%d)", uint8(k))
	}
}

// AlertTuple is one <switchID, epochID range, per-epoch byte counts> element
// of an alert (§5.1).
type AlertTuple struct {
	Switch     netsim.NodeID
	Epochs     simtime.EpochRange
	EpochBytes map[simtime.Epoch]uint64
}

// Alert is the message a host sends the analyzer when a trigger fires.
type Alert struct {
	Kind       AlertKind
	Flow       netsim.FlowKey
	Host       netsim.IPv4
	DetectedAt simtime.Time
	PrevGbps   float64
	CurGbps    float64
	// Tuples tell the analyzer when and where the victim flow's packets
	// were: one entry per switch on the path.
	Tuples []AlertTuple
}

// Agent is one host's SwitchPointer agent.
type Agent struct {
	host *netsim.Host
	net  *netsim.Network
	dec  *header.Decoder
	cfg  Config

	// Store holds the flow records (the MongoDB substitute).
	Store *store.RecordStore
	// Meters tracks per-flow arrival throughput at MeterInterval.
	Meters *transport.FlowMeters

	// OnAlert, when set, receives trigger events.
	OnAlert func(a Alert)
	// OnEvictError, when set, receives store-eviction flush failures from
	// the EnableRetention sweep (a full disk on the sink, typically).
	OnEvictError func(err error)

	// DecodeErrors counts packets whose telemetry could not be decoded.
	DecodeErrors uint64
	// Received counts packets processed.
	Received uint64

	lastAlert map[netsim.FlowKey]simtime.Time
	armed     bool // StartTriggers called
	trigTimer interface{ Stop() bool }

	// cold is the read-back seam over flushed segments (see SetColdReader).
	cold store.ColdReader

	// Cumulative cold read-back accounting, accumulated per query on top
	// of the per-answer HeadersAnswer counters — the scrape-side totals
	// /metrics exports. Atomics: query executors run concurrently.
	coldSegments atomic.Uint64
	coldRecords  atomic.Uint64
	coldReturned atomic.Uint64
	coldSkipped  atomic.Uint64
	coldTiered   atomic.Uint64
}

// ColdStats is the agent's cumulative cold read-back accounting.
type ColdStats struct {
	// Segments counts cold segments decoded for queries (a segment shared
	// by several queries of one round counts once per charged query,
	// matching the per-answer cost contract).
	Segments uint64
	// Records counts records scanned in those segments.
	Records uint64
	// Returned counts cold records merged into answers.
	Returned uint64
	// SkippedByIndex counts segments ruled out by their manifest index.
	SkippedByIndex uint64
	// Tiered counts tiered-out segment hits (honest answer gaps).
	Tiered uint64
}

// ColdStats returns the cumulative cold read-back counters.
func (a *Agent) ColdStats() ColdStats {
	return ColdStats{
		Segments:       a.coldSegments.Load(),
		Records:        a.coldRecords.Load(),
		Returned:       a.coldReturned.Load(),
		SkippedByIndex: a.coldSkipped.Load(),
		Tiered:         a.coldTiered.Load(),
	}
}

// New attaches a SwitchPointer agent to a host. The agent immediately starts
// decoding arriving packets; call StartTriggers to arm the monitor.
func New(net *netsim.Network, host *netsim.Host, dec *header.Decoder, cfg Config) *Agent {
	cfg = cfg.withDefaults()
	a := &Agent{
		host:      host,
		net:       net,
		dec:       dec,
		cfg:       cfg,
		Store:     store.New(),
		Meters:    transport.NewFlowMeters(cfg.MeterInterval),
		lastAlert: make(map[netsim.FlowKey]simtime.Time),
	}
	host.OnReceive(a.onPacket)
	return a
}

// Host returns the host this agent runs on.
func (a *Agent) Host() *netsim.Host { return a.host }

// Config returns the agent's configuration.
func (a *Agent) Config() Config { return a.cfg }

func (a *Agent) onPacket(p *netsim.Packet, now simtime.Time) {
	a.Received++
	if a.armed && a.trigTimer == nil {
		a.startTrigTimer()
	}
	a.Meters.Record(p, now)
	dec, err := a.dec.Decode(p, now, a.host.Clock)
	if err != nil {
		a.DecodeErrors++
		return
	}
	// Acquire/Release holds the flow's shard write-locked across the
	// mutation, so concurrent query executors never see a half-absorbed
	// record. The pair is allocation-free at steady state.
	rec := a.Store.Acquire(p.Flow)
	rec.Absorb(p, dec, now)
	a.Store.Release(rec)
}

// StartTriggers arms the millisecond monitor (the paper's "trigger measures
// throughput every 1 ms and generates an alert ... if throughput drop is
// more than 50%"). The periodic scan itself starts lazily with the host's
// first received packet: an idle host has nothing to monitor, and skipping
// its ticks keeps the event queue proportional to *active* hosts rather
// than cluster size.
func (a *Agent) StartTriggers() {
	if a.armed {
		return
	}
	a.armed = true
	if a.Received > 0 {
		a.startTrigTimer()
	}
}

func (a *Agent) startTrigTimer() {
	a.trigTimer = a.net.Engine.EveryWeak(a.cfg.MeterInterval, a.checkTriggers)
}

// StopTriggers disarms the monitor.
func (a *Agent) StopTriggers() {
	a.armed = false
	if a.trigTimer != nil {
		a.trigTimer.Stop()
		a.trigTimer = nil
	}
}

func (a *Agent) checkTriggers() {
	now := a.net.Now()
	completed := int(now/a.cfg.MeterInterval) - 1 // last fully elapsed bucket
	if completed < 1 {
		return
	}
	a.Meters.ForEach(func(flow netsim.FlowKey, m *transport.Meter) {
		prev := m.GbpsAt(completed - 1)
		cur := m.GbpsAt(completed)
		if prev < a.cfg.MinActiveGbps {
			return
		}
		if cur >= prev*(1-a.cfg.DropFraction) {
			return
		}
		if last, ok := a.lastAlert[flow]; ok && now-last < a.cfg.Cooldown {
			return
		}
		a.lastAlert[flow] = now
		a.raise(Alert{
			Kind:       AlertThroughputDrop,
			Flow:       flow,
			Host:       a.host.IP(),
			DetectedAt: now,
			PrevGbps:   prev,
			CurGbps:    cur,
		})
	})
}

// EnableRetention installs an eviction policy on the agent's store and
// starts a periodic maintenance sweep (every `every` of virtual time; ≤ 0
// selects 10 ms — one paper-default epoch). Cold records leave memory
// through the store's flush path into ret.Sink and/or ret.Cold; see
// store.Retention. When ret.Cold also implements store.ColdReader (as
// statesync.SegmentLog does), it is installed as the agent's read-back seam,
// so epoch-windowed queries reaching past the hot window transparently
// consult the flushed segments. The sweep timer is weak, so an
// otherwise-idle simulation still drains.
func (a *Agent) EnableRetention(ret store.Retention, every simtime.Time) {
	if every <= 0 {
		every = 10 * simtime.Millisecond
	}
	a.Store.SetRetention(ret)
	if rd, ok := ret.Cold.(store.ColdReader); ok {
		a.SetColdReader(rd)
	}
	a.net.Engine.EveryWeak(every, func() {
		if _, err := a.Store.Maintain(a.net.Now()); err != nil && a.OnEvictError != nil {
			a.OnEvictError(err)
		}
	})
}

// SetColdReader installs (nil removes) the cold read-back seam QueryHeaders
// consults for epoch windows that have aged out of the resident set. Set it
// before serving queries.
func (a *Agent) SetColdReader(rd store.ColdReader) { a.cold = rd }

// ColdReader returns the installed read-back seam (nil when none).
func (a *Agent) ColdReader() store.ColdReader { return a.cold }

// InjectTimeout raises a TCP-timeout alert for a flow (the destination-side
// stack noticing an RTO-scale silence; transports call this from scenario
// wiring).
func (a *Agent) InjectTimeout(flow netsim.FlowKey, at simtime.Time) {
	a.raise(Alert{
		Kind:       AlertTimeout,
		Flow:       flow,
		Host:       a.host.IP(),
		DetectedAt: at,
	})
}

func (a *Agent) raise(al Alert) {
	if rec, ok := a.Store.Lookup(al.Flow); ok {
		for i, sw := range rec.Path {
			tup := AlertTuple{Switch: sw, Epochs: rec.Epochs[i]}
			if i == rec.TagIdx || (rec.TagIdx == -1 && len(rec.Path) == 1) {
				tup.EpochBytes = make(map[simtime.Epoch]uint64, len(rec.EpochBytes))
				for e, b := range rec.EpochBytes {
					tup.EpochBytes[e] = b
				}
			}
			al.Tuples = append(al.Tuples, tup)
		}
	}
	if a.OnAlert != nil {
		a.OnAlert(al)
	}
}

// ---- Query executors (invoked by the analyzer over RPC) ----
//
// Every executor takes a context so a long distributed query can be
// cancelled or deadline-bounded end to end: the analyzer passes its query
// context, and the HTTP binding passes the request context.
//
// Executors are safe for concurrent invocation against the same agent —
// any number at once, and concurrently with the agent's own packet
// absorption: the sharded record store serves them under per-shard read
// locks (see store.RecordStore), so the HTTP binding runs fully
// multi-threaded with no single-owner-per-round restriction.

// HeadersQuery asks for records of flows that traversed a switch during an
// epoch range. Flows, when non-empty, restricts the answer to those flow
// keys — and lets the cold tier's per-segment bloom/flow-key index skip
// segments that cannot contain any of them.
type HeadersQuery struct {
	Switch netsim.NodeID
	Epochs simtime.EpochRange
	Flows  []netsim.FlowKey
}

// wantsFlow reports whether the query's flow restriction (if any) admits f.
func (q HeadersQuery) wantsFlow(f netsim.FlowKey) bool {
	if len(q.Flows) == 0 {
		return true
	}
	for _, w := range q.Flows {
		if w == f {
			return true
		}
	}
	return false
}

// HeadersAnswer is one host's reply to a HeadersQuery: the matching records
// plus the cold read-back accounting the analyzer needs to charge honestly.
// ColdSegments counts flushed segments this query had to decode (0 when the
// whole window was answered from the hot resident set); ColdRecords counts
// the records decoded from them (the host-local scan work, not just the
// matches). ColdReturned counts the records in Records that were recovered
// from cold segments rather than the hot store — the part of the answer
// that actually crosses the wire in the extra round, and therefore what
// the analyzer sizes that round by (the same returned-records basis the
// hot diagnosis round uses). ColdSkippedByIndex counts segments whose
// epoch range overlapped the window but whose manifest index (switch set,
// flow bounds, bloom) proved them irrelevant — skipped without decoding,
// the "cost proportional to the answer" savings. TieredSegments counts
// segments whose manifests matched but whose payloads were tiered out of
// cold storage: data the answer honestly does NOT include.
type HeadersAnswer struct {
	Records            []*flowrec.Record
	ColdSegments       int
	ColdRecords        int
	ColdReturned       int
	ColdSkippedByIndex int
	TieredSegments     int
}

// QueryHeaders returns (clones of) records matching the query: the
// "filter headers for packets that match a (switchID, epochID) pair"
// primitive that SwitchPointer's whole debugging flow builds on.
//
// When a ColdReader is installed (retention with an indexed flush path —
// see EnableRetention), the query transparently consults flushed segments
// whose manifests overlap the requested epoch window, so a diagnosis
// reaching past the hot window still succeeds; segments whose manifests
// don't overlap are skipped without decoding. The answer's cold counters
// report what that cost, and the analyzer charges one extra virtual-time
// round for it. With no cold reader — or a window answered entirely hot —
// the answer is byte-identical to the pre-read-back behaviour.
func (a *Agent) QueryHeaders(ctx context.Context, q HeadersQuery) HeadersAnswer {
	return a.QueryHeadersMulti(ctx, []HeadersQuery{q})[0]
}

// QueryHeadersMulti answers several header queries in one pass — the
// per-round primitive: a contention alert carries one HeadersQuery per
// alert tuple, and answering them together decodes each overlapping cold
// segment ONCE instead of once per tuple. Every answer — records, order,
// and cold accounting (each query is charged as if it had scanned the
// segments itself: the virtual-time cost contract is per query even though
// the physical decode is shared) — is byte-identical to calling
// QueryHeaders per query.
func (a *Agent) QueryHeadersMulti(ctx context.Context, qs []HeadersQuery) []HeadersAnswer {
	out := make([]HeadersAnswer, len(qs))
	if ctx.Err() != nil || len(qs) == 0 {
		return out
	}
	for qi := range qs {
		q := qs[qi]
		// The store filters on (switch, window) and hands matches over shard
		// by shard; the answer goes out in flow-key order.
		a.Store.QueryWindow(q.Switch, q.Epochs, func(rec *flowrec.Record) {
			if q.wantsFlow(rec.Flow) {
				out[qi].Records = append(out[qi].Records, rec.Clone())
			}
		})
		flowrec.SortRecords(out[qi].Records)
	}
	if a.cold == nil {
		return out
	}

	// Cold read-back over a point-in-time view of the segment log: decode
	// only segments whose manifest epoch range overlaps some query's window
	// AND whose index (switch set, flow-key bounds, bloom) cannot rule the
	// query out — index exclusions are counted per query as
	// ColdSkippedByIndex. Tiered-out segments are never decoded (the data
	// is gone); they are reported as TieredSegments so the answer's gap is
	// honest. Kept records must match the query's (switch, epochs) and not
	// already be answered hot. Later segments win for a flow evicted more
	// than once (eviction order is write order).
	hot := make([]map[netsim.FlowKey]bool, len(qs))
	recovered := make([]map[netsim.FlowKey]*flowrec.Record, len(qs))
	for qi := range qs {
		hot[qi] = make(map[netsim.FlowKey]bool, len(out[qi].Records))
		for _, r := range out[qi].Records {
			hot[qi][r.Flow] = true
		}
		recovered[qi] = make(map[netsim.FlowKey]*flowrec.Record)
	}
	view := a.cold.View()
	defer view.Close()
	var interested []int
	var recs []*flowrec.Record
	for i := 0; i < view.Len(); i++ {
		m := view.Manifest(i)
		interested = interested[:0]
		for qi := range qs {
			q := qs[qi]
			if !m.Epochs.Overlaps(q.Epochs) {
				continue
			}
			if !m.MayContainSwitch(q.Switch) ||
				(len(q.Flows) > 0 && !m.MayContainAnyFlow(q.Flows)) {
				out[qi].ColdSkippedByIndex++
				continue
			}
			if m.Tiered {
				out[qi].TieredSegments++
				continue
			}
			interested = append(interested, qi)
		}
		if len(interested) == 0 {
			continue
		}
		recs = recs[:0]
		err := view.ReadSegment(i, func(rec *flowrec.Record) { recs = append(recs, rec) })
		if err != nil {
			if a.OnEvictError != nil {
				a.OnEvictError(fmt.Errorf("hostagent: cold read-back: %w", err))
			}
			continue
		}
		for _, qi := range interested {
			q := qs[qi]
			out[qi].ColdSegments++
			out[qi].ColdRecords += len(recs)
			for _, rec := range recs {
				if hot[qi][rec.Flow] || !q.wantsFlow(rec.Flow) {
					continue
				}
				er, ok := rec.EpochsAt(q.Switch)
				if ok && er.Overlaps(q.Epochs) {
					recovered[qi][rec.Flow] = rec
				}
			}
		}
	}
	for qi := range qs {
		if len(recovered[qi]) == 0 {
			continue
		}
		out[qi].ColdReturned = len(recovered[qi])
		for _, rec := range recovered[qi] {
			out[qi].Records = append(out[qi].Records, rec)
		}
		// Keep each merged answer in the store's deterministic flow-key
		// order so reports are byte-identical to a run whose window was
		// never evicted.
		flowrec.SortRecords(out[qi].Records)
	}
	for qi := range out {
		a.coldSegments.Add(uint64(out[qi].ColdSegments))
		a.coldRecords.Add(uint64(out[qi].ColdRecords))
		a.coldReturned.Add(uint64(out[qi].ColdReturned))
		a.coldSkipped.Add(uint64(out[qi].ColdSkippedByIndex))
		a.coldTiered.Add(uint64(out[qi].TieredSegments))
	}
	return out
}

// FlowBytes pairs a flow with a byte count for top-k style answers.
type FlowBytes struct {
	Flow  netsim.FlowKey
	Bytes uint64
}

// QueryTopK returns this host's top-k flows by bytes through switch sw.
// The analyzer merges per-host answers into the global top-k (Fig 12).
func (a *Agent) QueryTopK(ctx context.Context, sw netsim.NodeID, k int) []FlowBytes {
	if ctx.Err() != nil {
		return nil
	}
	out := make([]FlowBytes, 0, len(a.Store.BySwitch(sw))) // memoized; sizes the answer
	a.Store.QueryBySwitch(sw, func(r *flowrec.Record) bool {
		out = append(out, FlowBytes{Flow: r.Flow, Bytes: r.Bytes})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Flow.CompareString(out[j].Flow) < 0
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// FlowSize reports one flow's size and the egress link (interface) its
// packets used at the tagging switch — the §5.4 load-imbalance signal.
type FlowSize struct {
	Flow  netsim.FlowKey
	Bytes uint64
	Link  topo.LinkID
}

// QueryFlowSizes returns sizes and egress links of this host's flows through
// switch sw.
func (a *Agent) QueryFlowSizes(ctx context.Context, sw netsim.NodeID) []FlowSize {
	if ctx.Err() != nil {
		return nil
	}
	out := make([]FlowSize, 0, len(a.Store.BySwitch(sw))) // memoized; sizes the answer
	a.Store.QueryBySwitch(sw, func(r *flowrec.Record) bool {
		out = append(out, FlowSize{Flow: r.Flow, Bytes: r.Bytes, Link: r.TagLink})
		return true
	})
	return out
}

// LookupRecord returns a clone of one flow's full record, if the host holds
// one — the cascade procedure's synthetic-alert source. The clone is taken
// under the record's shard read lock, so it is safe concurrently with
// absorption; the HTTP binding serves it at /record.
func (a *Agent) LookupRecord(ctx context.Context, flow netsim.FlowKey) (*flowrec.Record, bool) {
	if ctx.Err() != nil {
		return nil, false
	}
	var rec *flowrec.Record
	ok := a.Store.View(flow, func(r *flowrec.Record) { rec = r.Clone() })
	return rec, ok
}

// QueryPriority returns the recorded DSCP priority of a flow, if known.
func (a *Agent) QueryPriority(ctx context.Context, flow netsim.FlowKey) (uint8, bool) {
	if ctx.Err() != nil {
		return 0, false
	}
	var prio uint8
	known := a.Store.View(flow, func(rec *flowrec.Record) { prio = rec.Priority })
	return prio, known
}
