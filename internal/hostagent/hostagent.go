// Package hostagent implements SwitchPointer's end-host component (§4.2):
// the PathDump-derived agent that decodes telemetry from arriving packets,
// maintains flow records, monitors per-flow throughput at millisecond
// granularity, triggers alerts on spurious events, and executes the
// analyzer's distributed queries.
package hostagent

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
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
	// the EnableRetention sweep (a full disk under ret.Cold, typically), cold
	// read-back failures, and an answer the agent could not build.
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
// through the store's flush path into ret.Cold; see
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

// SetColdReader installs (nil removes) the cold read-back seam every host
// query consults for records that have aged out of the resident set. Set it
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
	// The tuples are built under the record's shard read lock: a concurrent
	// Put may replace the record the moment the lock is released.
	a.Store.View(al.Flow, func(rec *flowrec.Record) {
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
	})
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

	// anySwitch drops the switch restriction: the cold-tier record lookup
	// behind LookupRecord and QueryPriority. The wire cannot set it.
	anySwitch bool
}

// wantsFlow reports whether the query's flow restriction (if any) admits f.
func (q HeadersQuery) wantsFlow(f netsim.FlowKey) bool {
	return len(q.Flows) == 0 || slices.Contains(q.Flows, f)
}

// matches reports whether rec answers the query: the flow is wanted and was
// seen at the query's switch during its window.
func (q HeadersQuery) matches(rec *flowrec.Record) bool {
	if q.anySwitch {
		return q.wantsFlow(rec.Flow)
	}
	er, ok := rec.EpochsAt(q.Switch)
	return ok && er.Overlaps(q.Epochs) && q.wantsFlow(rec.Flow)
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

// AnswerHeaders answers each query with one flowrec segment of the records
// matching it, in flow-key order — segs[i] answers qs[i], and answers[i]
// carries its cold accounting with Records nil: the "filter headers for
// packets that match a (switchID, epochID) pair" primitive that
// SwitchPointer's whole debugging flow builds on, in the form the wire
// carries. No record is materialised: an encoded record's stored bytes are
// copied, a live one is encoded under its shard read lock, and cold matches
// are copied out of their segments. It answers several queries in one pass —
// the per-round primitive: a contention alert carries one HeadersQuery per
// alert tuple, and answering them together reads each overlapping cold
// segment ONCE instead of once per tuple. Every answer — records, order, and
// cold accounting (each query is charged as if it had scanned the segments
// itself: the virtual-time cost contract is per query even though the
// physical read is shared) — is byte-identical to asking each query alone.
//
// When a ColdReader is installed (retention with an indexed flush path —
// see EnableRetention), the queries transparently consult flushed segments
// whose manifests overlap the requested epoch windows, so a diagnosis
// reaching past the hot window still succeeds; segments whose manifests
// don't overlap are skipped without reading. The answers' cold counters
// report what that cost, and the analyzer charges one extra virtual-time
// round for it. With no cold reader — or a window answered entirely hot —
// the answer is byte-identical to the pre-read-back behaviour.
func (a *Agent) AnswerHeaders(ctx context.Context, qs []HeadersQuery) (answers []HeadersAnswer, segs [][]byte, err error) {
	answers, segs = make([]HeadersAnswer, len(qs)), make([][]byte, len(qs))
	_, err = a.answerHeaders(ctx, qs, answers, nil, func(qi int, seg []byte) error {
		segs[qi] = seg
		return nil
	})
	return answers, segs, err
}

// answerHeaders charges each query's cold accounting to out and splices its
// segment onto buf, all back to back, handing each to fn as it is done; an
// error from fn stops it. It returns buf.
func (a *Agent) answerHeaders(ctx context.Context, qs []HeadersQuery, out []HeadersAnswer, buf []byte, fn func(qi int, seg []byte) error) ([]byte, error) {
	sc := answerScratchPool.Get().(*answerScratch)
	defer sc.release()
	sc.encs = slices.Grow(sc.encs, len(qs))[:len(qs)]
	if ctx.Err() == nil { // a cancelled query answers empty
		for qi := range qs {
			q, start := qs[qi], len(sc.hot)
			// The store filters on (switch, window) and hands matches over
			// shard by shard; the answer goes out in flow-key order.
			sc.live = a.Store.QueryWindowEncoded(q.Switch, q.Epochs, sc.live, func(enc []byte) {
				if q.wantsFlow(flowrec.FlowOf(enc)) {
					sc.hot = append(sc.hot, enc)
				}
			})
			sc.encs[qi] = sc.hot[start:len(sc.hot):len(sc.hot)]
			flowrec.SortEncoded(sc.encs[qi])
		}
		a.readCold(qs, out, sc.encs)
	}
	size := 0
	for _, e := range sc.encs {
		size += flowrec.SegmentHeaderLen
		for _, enc := range e {
			size += len(enc)
		}
	}
	buf = slices.Grow(buf, size)
	for qi := range out {
		start := len(buf)
		var err error
		if buf, err = flowrec.SpliceSegment(buf, sc.encs[qi]); err != nil {
			return buf, fmt.Errorf("hostagent: headers answer %d: %w", qi, err)
		}
		if err := fn(qi, buf[start:len(buf):len(buf)]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// answerScratch is what AnswerHeaders collects record encodings in. Nothing
// of it outlives the splice into the answers' segments, so it is pooled.
type answerScratch struct {
	hot  [][]byte   // every query's hot matches, one run after another
	encs [][][]byte // per query: its run, merged with its cold matches
	live []byte     // the live matches' encodings
}

var answerScratchPool = sync.Pool{New: func() any { return new(answerScratch) }}

// release drops the scratch's references to record bytes and pools it,
// unless an outsized answer grew it.
func (sc *answerScratch) release() {
	if cap(sc.live) > 1<<20 || cap(sc.hot) > 1<<16 {
		return
	}
	clear(sc.hot)
	clear(sc.encs)
	sc.hot, sc.encs, sc.live = sc.hot[:0], sc.encs[:0], sc.live[:0]
	answerScratchPool.Put(sc)
}

// QueryHeadersMulti is AnswerHeaders with every segment decoded into its
// answer's Records (nil when nothing matched): the form the in-memory plane
// hands the analyzer, and one answer path with the wire's. The segments are
// spliced into a pooled buffer: decoded records never alias it.
func (a *Agent) QueryHeadersMulti(ctx context.Context, qs []HeadersQuery) []HeadersAnswer {
	out := make([]HeadersAnswer, len(qs))
	buf := segmentPool.Get().(*[]byte)
	segs, err := a.answerHeaders(ctx, qs, out, (*buf)[:0], func(qi int, seg []byte) error {
		recs, _, err := flowrec.DecodeSegment(seg, nil)
		if len(recs) > 0 {
			out[qi].Records = recs
		}
		return err
	})
	if *buf = segs; cap(segs) <= 1<<20 {
		segmentPool.Put(buf)
	}
	if err != nil {
		// Unreachable short of a 4 GiB answer: the store's bytes are
		// AppendRecord's, and the cold ranges passed ScanSegment.
		a.reportError(err)
		return make([]HeadersAnswer, len(qs))
	}
	return out
}

var segmentPool = sync.Pool{New: func() any { return new([]byte) }}

// reportError hands err to OnEvictError, the agent's one error sink, if set.
func (a *Agent) reportError(err error) {
	if a.OnEvictError != nil {
		a.OnEvictError(err)
	}
}

// readCold merges the cold tier's matches for qs into their hot answers'
// record encodings in encs, in flow-key order, and charges each answer's cold
// counters in out; with no cold reader it does nothing. Every host query
// kind reads the cold tier through it.
func (a *Agent) readCold(qs []HeadersQuery, out []HeadersAnswer, encs [][][]byte) {
	if a.cold == nil {
		return
	}

	// Cold read-back over a point-in-time view of the segment log: read
	// only segments whose manifest epoch range overlaps some query's window
	// AND whose index (switch set, flow-key bounds, bloom) cannot rule the
	// query out — index exclusions are counted per query as
	// ColdSkippedByIndex. Tiered-out segments are never read (the data
	// is gone); they are reported as TieredSegments so the answer's gap is
	// honest. A record some interested query matches is copied out of its
	// segment once, as bytes; each query then keeps its own matches in
	// segment order.
	cold := make([][][]byte, len(qs))
	var copied []byte
	var interested []int
	keep := func(rec *flowrec.Record) bool {
		for _, qi := range interested {
			if qs[qi].matches(rec) {
				return true
			}
		}
		return false
	}
	collect := func(rec *flowrec.Record, enc []byte) {
		var own []byte
		for _, qi := range interested {
			if qs[qi].matches(rec) {
				if own == nil {
					start := len(copied)
					copied = append(copied, enc...)
					own = copied[start:len(copied):len(copied)]
				}
				cold[qi] = append(cold[qi], own)
			}
		}
	}
	view := a.cold.View()
	defer view.Close()
	for i := 0; i < view.Len(); i++ {
		m := view.Manifest(i)
		interested = interested[:0]
		for qi := range qs {
			q := qs[qi]
			if !m.Epochs.Overlaps(q.Epochs) {
				continue
			}
			if (!q.anySwitch && !m.MayContainSwitch(q.Switch)) ||
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
		n, err := view.ReadSegment(i, keep, collect)
		if err != nil {
			a.reportError(fmt.Errorf("hostagent: cold read-back: %w", err))
			continue
		}
		for _, qi := range interested {
			out[qi].ColdSegments++
			out[qi].ColdRecords += n
		}
	}
	for qi := range out {
		encs[qi], out[qi].ColdReturned = mergeCold(encs[qi], cold[qi])
		a.coldSegments.Add(uint64(out[qi].ColdSegments))
		a.coldRecords.Add(uint64(out[qi].ColdRecords))
		a.coldReturned.Add(uint64(out[qi].ColdReturned))
		a.coldSkipped.Add(uint64(out[qi].ColdSkippedByIndex))
		a.coldTiered.Add(uint64(out[qi].TieredSegments))
	}
}

// mergeCold merges one query's cold matches, in segment order, into its hot
// answer, in flow-key order, and says how many it took: a flow answered hot
// stays hot, and the last segment's version of a flow evicted twice wins.
// Both are record encodings.
func mergeCold(hot, cold [][]byte) ([][]byte, int) {
	if len(cold) == 0 {
		return hot, 0
	}
	slices.SortStableFunc(cold, func(a, b []byte) int { return flowrec.Compare(flowrec.FlowOf(a), flowrec.FlowOf(b)) })
	merged := make([][]byte, 0, len(hot)+len(cold))
	taken, h := 0, 0
	for i, enc := range cold {
		flow := flowrec.FlowOf(enc)
		if i+1 < len(cold) && flowrec.FlowOf(cold[i+1]) == flow {
			continue // a later version follows
		}
		for h < len(hot) && flowrec.Less(flowrec.FlowOf(hot[h]), flow) {
			merged = append(merged, hot[h])
			h++
		}
		if h < len(hot) && flowrec.FlowOf(hot[h]) == flow {
			continue
		}
		merged = append(merged, enc)
		taken++
	}
	if taken == 0 {
		return hot, 0
	}
	return append(merged, hot[h:]...), taken
}

// switchRecords calls fn for every record of a flow seen at switch sw: the
// hot store's records or, with a cold reader installed, QueryHeadersMulti's
// hot + cold answer over every epoch (a flow answered hot stays hot; for a
// flow evicted twice the last segment wins).
func (a *Agent) switchRecords(ctx context.Context, sw netsim.NodeID, fn func(*flowrec.Record)) {
	if a.cold == nil {
		a.Store.QueryWindow(sw, store.EveryEpoch, fn)
		return
	}
	for _, r := range a.QueryHeadersMulti(ctx, []HeadersQuery{{Switch: sw, Epochs: store.EveryEpoch}})[0].Records {
		fn(r)
	}
}

// FlowBytes pairs a flow with a byte count for top-k style answers.
type FlowBytes struct {
	Flow  netsim.FlowKey
	Bytes uint64
}

// QueryTopK returns this host's top-k flows by bytes through switch sw
// (every flow with an epoch range there; k ≤ 0: all of them), largest first,
// equal byte counts in flow-key string order. It sorts the whole per-host
// answer rather than keeping a k-heap: a host's answer is small. The
// analyzer merges per-host answers into the global top-k (Fig 12).
func (a *Agent) QueryTopK(ctx context.Context, sw netsim.NodeID, k int) []FlowBytes {
	if ctx.Err() != nil {
		return nil
	}
	out := []FlowBytes{} // an empty answer is [] on the wire, not null
	a.switchRecords(ctx, sw, func(r *flowrec.Record) {
		out = append(out, FlowBytes{Flow: r.Flow, Bytes: r.Bytes})
	})
	slices.SortFunc(out, func(x, y FlowBytes) int {
		if c := cmp.Compare(y.Bytes, x.Bytes); c != 0 {
			return c
		}
		return x.Flow.CompareString(y.Flow)
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
// switch sw (every flow with an epoch range there), in flow-key order.
func (a *Agent) QueryFlowSizes(ctx context.Context, sw netsim.NodeID) []FlowSize {
	if ctx.Err() != nil {
		return nil
	}
	out := []FlowSize{} // an empty answer is [] on the wire, not null
	a.switchRecords(ctx, sw, func(r *flowrec.Record) {
		out = append(out, FlowSize{Flow: r.Flow, Bytes: r.Bytes, Link: r.TagLink})
	})
	slices.SortFunc(out, func(x, y FlowSize) int { return flowrec.Compare(x.Flow, y.Flow) })
	return out
}

// AnswerRecord answers LookupRecord as the wire carries it: one flowrec
// segment of the flow's record, its bytes copied (or a live record encoded)
// under the record's shard read lock, so it is safe concurrently with
// absorption; the HTTP binding serves it at /record. A flow the hot store
// misses is looked up in the cold tier.
func (a *Agent) AnswerRecord(ctx context.Context, flow netsim.FlowKey) ([]byte, bool, error) {
	if ctx.Err() != nil {
		return nil, false, nil
	}
	var buf [256]byte // most records encode in fewer bytes
	enc, ok := a.Store.AppendEncoded(buf[:0], flow)
	if !ok {
		if enc, ok = a.coldRecord(flow); !ok {
			return nil, false, nil
		}
	}
	seg, err := flowrec.SpliceSegment(nil, [][]byte{enc})
	if err != nil {
		return nil, false, fmt.Errorf("hostagent: record answer: %w", err)
	}
	return seg, true, nil
}

// LookupRecord returns a copy of one flow's full record, if the host holds
// one — the cascade procedure's synthetic-alert source: AnswerRecord,
// decoded.
func (a *Agent) LookupRecord(ctx context.Context, flow netsim.FlowKey) (*flowrec.Record, bool) {
	seg, ok, err := a.AnswerRecord(ctx, flow)
	if err == nil && ok {
		var recs []*flowrec.Record
		if recs, _, err = flowrec.DecodeSegment(seg, nil); err == nil {
			return recs[0], true
		}
	}
	if err != nil {
		a.reportError(err)
	}
	return nil, false
}

// QueryPriority returns the recorded DSCP priority of a flow, if known —
// from the hot store, or else from the cold tier.
func (a *Agent) QueryPriority(ctx context.Context, flow netsim.FlowKey) (uint8, bool) {
	if ctx.Err() != nil {
		return 0, false
	}
	var prio uint8
	if a.Store.View(flow, func(rec *flowrec.Record) { prio = rec.Priority }) {
		return prio, true
	}
	if enc, ok := a.coldRecord(flow); ok {
		if rec, err := flowrec.DecodeRecord(enc); err == nil {
			return rec.Priority, true
		}
	}
	return 0, false
}

// coldRecord returns the encoding of the cold tier's last version of flow's
// record, if the host has a cold reader and any segment holds one.
func (a *Agent) coldRecord(flow netsim.FlowKey) ([]byte, bool) {
	if a.cold == nil {
		return nil, false
	}
	out, encs := make([]HeadersAnswer, 1), make([][][]byte, 1)
	a.readCold([]HeadersQuery{{Epochs: store.EveryEpoch, Flows: []netsim.FlowKey{flow}, anySwitch: true}}, out, encs)
	if len(encs[0]) == 0 {
		return nil, false
	}
	return encs[0][0], true
}
