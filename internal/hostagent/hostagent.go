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

// AlertThroughputDrop is the one alert kind: the trigger saw a flow's
// throughput drop (§5.1). Its String form seeds alert-driven trace IDs.
const AlertThroughputDrop AlertKind = 1

func (k AlertKind) String() string {
	switch k {
	case AlertThroughputDrop:
		return "throughput-drop"
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

	// flows is the packet path's per-flow state: each flow's rate window
	// (its arrival bytes in its last MeterInterval buckets), path memo,
	// record handle and last alert.
	flows   flowTable
	armed   bool // StartTriggers called
	ticking bool // the trigger scan is scheduled

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
		host:  host,
		net:   net,
		dec:   dec,
		cfg:   cfg,
		Store: store.New(),
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
	if a.armed && !a.ticking {
		a.startTrigTimer()
	}
	fs := a.flows.get(p.Flow)
	fs.rate.record(p.Size, int(now/a.cfg.MeterInterval))
	dec, err := a.dec.DecodeMemo(p, now, a.host.Clock, &fs.path)
	if err != nil {
		a.DecodeErrors++
		return
	}
	// Acquire/Release holds the flow's shard write-locked across the
	// mutation, so concurrent query executors never see a half-absorbed
	// record. The pair is allocation-free at steady state.
	rec := a.Store.AcquireHandle(p.Flow, &fs.rec)
	rec.Absorb(p, dec, now)
	a.Store.ReleaseHandle(fs.rec, rec)
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
	a.ticking = true
	a.net.Engine.EveryWeak(a.cfg.MeterInterval, a.checkTriggers)
}

func (a *Agent) checkTriggers() {
	now := a.net.Now()
	completed := int(now/a.cfg.MeterInterval) - 1 // last fully elapsed bucket
	if completed < 1 {
		return
	}
	// The table ranges in arrival order, not flow order. A tick that raises
	// two or more alerts sorts them by flow below, so they are raised in
	// flow order; a tick raising one keeps it in first and allocates nothing.
	var first Alert
	var rest []Alert
	raised := 0
	for _, fs := range a.flows.flows {
		prev := fs.rate.gbps(completed-1, a.cfg.MeterInterval)
		cur := fs.rate.gbps(completed, a.cfg.MeterInterval)
		if prev < a.cfg.MinActiveGbps {
			continue
		}
		if cur >= prev*(1-a.cfg.DropFraction) {
			continue
		}
		if fs.alerted && now-fs.lastAlert < a.cfg.Cooldown {
			continue
		}
		fs.lastAlert, fs.alerted = now, true
		al := Alert{
			Kind:       AlertThroughputDrop,
			Flow:       fs.flow,
			Host:       a.host.IP(),
			DetectedAt: now,
			PrevGbps:   prev,
			CurGbps:    cur,
		}
		if raised == 0 {
			first = al
		} else {
			rest = append(rest, al)
		}
		raised++
	}
	switch raised {
	case 0:
		return
	case 1:
		a.raise(first)
		return
	}
	rest = append(rest, first)
	slices.SortFunc(rest, func(x, y Alert) int { return flowrec.Compare(x.Flow, y.Flow) })
	for _, al := range rest {
		a.raise(al)
	}
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

func (a *Agent) raise(al Alert) {
	// The tuples are built under the record's shard read lock: a concurrent
	// Put may replace the record the moment the lock is released.
	a.Store.View(al.Flow, func(rec *flowrec.Record) {
		// Grown once to the path; a pathless record leaves Tuples nil.
		al.Tuples = slices.Grow(al.Tuples, len(rec.Path))
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

// matches reports whether the record at c answers the query: the flow is
// wanted and was seen at the query's switch during its window.
func (q HeadersQuery) matches(c *flowrec.Cursor) bool {
	if q.anySwitch {
		return q.wantsFlow(c.Flow())
	}
	er, ok := c.EpochsAt(q.Switch)
	return ok && er.Overlaps(q.Epochs) && q.wantsFlow(c.Flow())
}

// HeadersAnswer is one host's reply to a HeadersQuery: the matching records,
// as one flowrec segment in flow-key order that a flowrec.Cursor reads in
// place, plus the cold read-back accounting the analyzer needs to charge
// honestly.
// ColdSegments counts flushed segments this query had to decode (0 when the
// whole window was answered from the hot resident set); ColdRecords counts
// the records walked in them (the host-local scan work, not just the
// matches). ColdReturned counts the records in Segment that were recovered
// from cold segments rather than the hot store — the part of the answer
// that actually crosses the wire in the extra round, and therefore what
// the analyzer sizes that round by (the same returned-records basis the
// hot diagnosis round uses). ColdSkippedByIndex counts segments whose
// epoch range overlapped the window but whose manifest index (switch set,
// flow bounds, bloom) proved them irrelevant — skipped without decoding,
// the "cost proportional to the answer" savings. TieredSegments counts
// segments whose manifests matched but whose payloads were tiered out of
// cold storage: data the answer honestly does NOT include.
//
// Segment is a slice of the buffer AnswerHeaders spliced every answer of one
// call onto, which the caller owns: it stays valid until the caller reuses
// that buffer.
type HeadersAnswer struct {
	Segment            []byte
	ColdSegments       int
	ColdRecords        int
	ColdReturned       int
	ColdSkippedByIndex int
	TieredSegments     int
}

// AnswerHeaders answers each query with one flowrec segment of the records
// matching it, in flow-key order, with its cold accounting — answers[i]
// answers qs[i]: the "filter headers for packets that match a (switchID,
// epochID) pair" primitive that SwitchPointer's whole debugging flow builds
// on, in the form the wire carries. No record is materialised: an encoded
// record's stored bytes are copied, a live one is encoded under its shard
// read lock, and cold matches are copied out of their segments. The answers'
// segments are spliced back to back onto buf, which AnswerHeaders returns,
// grown if it had to grow: the caller owns it, and each answer's Segment is
// valid for as long as the caller leaves the returned buffer alone — handing
// it back to a pool ends the answers. Everything else the answer is built
// in is pooled scratch, so a steady-state call allocates nothing per record.
// It answers several queries in one pass — the per-round primitive: a
// contention alert carries one HeadersQuery per alert tuple, and answering
// them together reads each overlapping cold segment ONCE instead of once per
// tuple. Every answer — records, order, and cold accounting (each query is
// charged as if it had scanned the segments itself: the virtual-time cost
// contract is per query even though the physical read is shared) — is
// byte-identical to asking each query alone.
//
// When a ColdReader is installed (retention with an indexed flush path —
// see EnableRetention), the queries transparently consult flushed segments
// whose manifests overlap the requested epoch windows, so a diagnosis
// reaching past the hot window still succeeds; segments whose manifests
// don't overlap are skipped without reading. The answers' cold counters
// report what that cost, and the analyzer charges one extra virtual-time
// round for it. With no cold reader — or a window answered entirely hot —
// the answer is byte-identical to the pre-read-back behaviour.
func (a *Agent) AnswerHeaders(ctx context.Context, qs []HeadersQuery, buf []byte) ([]HeadersAnswer, []byte, error) {
	answers := make([]HeadersAnswer, len(qs))
	buf, err := a.answerHeaders(ctx, qs, answers, buf, func(qi int, seg []byte) error {
		answers[qi].Segment = seg
		return nil
	})
	return answers, buf, err
}

// answerHeaders charges each query's cold accounting to out and splices its
// segment onto buf, all back to back, handing each to fn as it is done; an
// error from fn stops it. It returns buf.
func (a *Agent) answerHeaders(ctx context.Context, qs []HeadersQuery, out []HeadersAnswer, buf []byte, fn func(qi int, seg []byte) error) ([]byte, error) {
	sc := answerScratchPool.Get().(*answerScratch)
	defer sc.release()
	sc.encs = slices.Grow(sc.encs[:0], len(qs))[:len(qs)]
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
		a.readCold(sc, qs, out)
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

// answerScratch is what AnswerHeaders collects record encodings in, and
// what readCold copies cold records out and merges them with. Nothing of it
// outlives the splice into the answers' segments, so it is pooled.
type answerScratch struct {
	hot  [][]byte   // every query's hot matches, one run after another
	encs [][][]byte // per query: its run, merged with its cold matches
	live []byte     // the live matches' encodings

	// The cold read-back's: keep and collect are keepRecord and
	// collectRecord, bound once per scratch.
	qs         []HeadersQuery // the queries being answered
	interested []int          // the queries the segment being read may answer
	hits       []int          // per kept record: the interested queries it matches, then −1
	next       int            // collectRecord's place in hits
	copied     []byte         // the kept cold records' bytes
	cold       [][][]byte     // per query: its cold matches, in segment order
	merged     [][]byte       // the merged runs encs points into, one after another
	keep       func(*flowrec.Cursor) bool
	collect    func(*flowrec.Cursor)
}

var answerScratchPool = sync.Pool{New: func() any {
	sc := new(answerScratch)
	sc.keep, sc.collect = sc.keepRecord, sc.collectRecord
	return sc
}}

// release drops the scratch's references to record bytes and pools it,
// unless an outsized answer grew it: past 1 MiB of live or copied record
// bytes, past 64 Ki entries in hot, merged, hits, encs or interested, or past
// 64 Ki entries in the cold lists together, counting one for each list.
func (sc *answerScratch) release() {
	big := cap(sc.live) > 1<<20 || cap(sc.copied) > 1<<20 ||
		cap(sc.hot) > 1<<16 || cap(sc.merged) > 1<<16 || cap(sc.hits) > 1<<16 ||
		cap(sc.encs) > 1<<16 || cap(sc.interested) > 1<<16
	lists := sc.cold[:cap(sc.cold)]
	entries := len(lists)
	for i, l := range lists {
		entries += cap(l)
		clear(l)
		lists[i] = l[:0]
	}
	if big || entries > 1<<16 {
		return
	}
	clear(sc.hot)
	clear(sc.encs)
	clear(sc.merged)
	sc.hot, sc.encs, sc.live, sc.merged = sc.hot[:0], sc.encs[:0], sc.live[:0], sc.merged[:0]
	sc.qs, sc.cold, sc.copied = nil, sc.cold[:0], sc.copied[:0]
	answerScratchPool.Put(sc)
}

// coldLists sets cold to n per-query lists, empty as release left them,
// reusing the room earlier answers grew.
func (sc *answerScratch) coldLists(n int) {
	lists := sc.cold[:cap(sc.cold)]
	for len(lists) < n {
		lists = append(lists, nil)
	}
	sc.cold = lists[:n]
}

// keepRecord reports whether the record at c answers any interested query,
// noting on hits which ones it does, for collectRecord: each query is
// matched against each record once.
func (sc *answerScratch) keepRecord(c *flowrec.Cursor) bool {
	n := len(sc.hits)
	for _, qi := range sc.interested {
		if sc.qs[qi].matches(c) {
			sc.hits = append(sc.hits, qi)
		}
	}
	if len(sc.hits) == n {
		return false
	}
	sc.hits = append(sc.hits, -1)
	return true
}

// collectRecord copies the record at c, the next one keepRecord kept, out
// of its segment once, and adds it to the cold list of every query
// keepRecord found it answers.
func (sc *answerScratch) collectRecord(c *flowrec.Cursor) {
	start := len(sc.copied)
	sc.copied = append(sc.copied, c.Encoding()...)
	own := sc.copied[start:len(sc.copied):len(sc.copied)]
	for ; sc.hits[sc.next] >= 0; sc.next++ {
		qi := sc.hits[sc.next]
		sc.cold[qi] = append(sc.cold[qi], own)
	}
	sc.next++ // past the record's −1
}

// QueryHeadersMulti is AnswerHeaders for the in-memory plane, one answer
// path with the wire's, onto a buffer the answers keep. Its segments reach the analyzer as spliced, with no
// second check: every range in them is the store's own AppendRecord bytes or
// a cold range ScanSegment walked clean. A failure to answer is reported and
// answers nothing, as a host that cannot be reached does.
func (a *Agent) QueryHeadersMulti(ctx context.Context, qs []HeadersQuery) []HeadersAnswer {
	answers, _, err := a.AnswerHeaders(ctx, qs, nil)
	if err != nil {
		// Unreachable short of a 4 GiB answer, since SpliceSegment's layout
		// check holds for all such ranges.
		a.reportError(err)
		return nil
	}
	return answers
}

var segmentPool = sync.Pool{New: func() any { return new([]byte) }}

// reportError hands err to OnEvictError, the agent's one error sink, if set.
func (a *Agent) reportError(err error) {
	if a.OnEvictError != nil {
		a.OnEvictError(err)
	}
}

// readCold merges the cold tier's matches for qs into their hot answers'
// record encodings in sc.encs, in flow-key order, and charges each answer's
// cold counters in out; with no cold reader it does nothing. Every host
// query kind reads the cold tier through it. What it merges lies in sc.
func (a *Agent) readCold(sc *answerScratch, qs []HeadersQuery, out []HeadersAnswer) {
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
	// segment order. Records are read in place by a cursor, never decoded.
	sc.qs = qs
	sc.coldLists(len(qs))
	view := a.cold.View()
	defer view.Close()
	for i := 0; i < view.Len(); i++ {
		m := view.Manifest(i)
		sc.interested = sc.interested[:0]
		for qi := range qs {
			q := &qs[qi]
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
			sc.interested = append(sc.interested, qi)
		}
		if len(sc.interested) == 0 {
			continue
		}
		sc.hits, sc.next = sc.hits[:0], 0
		n, err := view.ReadSegment(i, sc.keep, sc.collect)
		if err != nil {
			a.reportError(fmt.Errorf("hostagent: cold read-back: %w", err))
			continue
		}
		for _, qi := range sc.interested {
			out[qi].ColdSegments++
			out[qi].ColdRecords += n
		}
	}
	for qi := range out {
		if cold := sc.cold[qi]; len(cold) > 0 {
			start := len(sc.merged)
			sc.merged, out[qi].ColdReturned = mergeCold(sc.merged, sc.encs[qi], cold)
			sc.encs[qi] = sc.merged[start:len(sc.merged):len(sc.merged)]
		}
		a.coldSegments.Add(uint64(out[qi].ColdSegments))
		a.coldRecords.Add(uint64(out[qi].ColdRecords))
		a.coldReturned.Add(uint64(out[qi].ColdReturned))
		a.coldSkipped.Add(uint64(out[qi].ColdSkippedByIndex))
		a.coldTiered.Add(uint64(out[qi].TieredSegments))
	}
}

// mergeCold appends to dst one query's hot answer, in flow-key order, merged
// with its cold matches, in segment order, and says how many of those it
// took: a flow answered hot stays hot, and the last segment's version of a
// flow evicted twice wins. All are record encodings; cold is sorted in place.
func mergeCold(dst, hot, cold [][]byte) ([][]byte, int) {
	slices.SortStableFunc(cold, func(a, b []byte) int { return flowrec.Compare(flowrec.FlowOf(a), flowrec.FlowOf(b)) })
	dst = slices.Grow(dst, len(hot)+len(cold))
	taken, h := 0, 0
	for i, enc := range cold {
		flow := flowrec.FlowOf(enc)
		if i+1 < len(cold) && flowrec.FlowOf(cold[i+1]) == flow {
			continue // a later version follows
		}
		for h < len(hot) && flowrec.Less(flowrec.FlowOf(hot[h]), flow) {
			dst = append(dst, hot[h])
			h++
		}
		if h < len(hot) && flowrec.FlowOf(hot[h]) == flow {
			continue
		}
		dst = append(dst, enc)
		taken++
	}
	return append(dst, hot[h:]...), taken
}

// switchRecords calls fn with the flow, byte count and tag link of every
// record of a flow seen at switch sw: the hot store's records or, with a cold
// reader installed, AnswerHeaders' hot + cold answer over every epoch, read
// in place (a flow answered hot stays hot; for a flow evicted twice the last
// segment wins).
func (a *Agent) switchRecords(ctx context.Context, sw netsim.NodeID, fn func(flow netsim.FlowKey, bytes uint64, link topo.LinkID)) {
	if a.cold == nil {
		a.Store.QueryWindow(sw, store.EveryEpoch, func(r *flowrec.Record) { fn(r.Flow, r.Bytes, r.TagLink) })
		return
	}
	var out [1]HeadersAnswer
	buf := segmentPool.Get().(*[]byte)
	seg, err := a.answerHeaders(ctx, []HeadersQuery{{Switch: sw, Epochs: store.EveryEpoch}}, out[:], (*buf)[:0], func(_ int, seg []byte) error {
		c := flowrec.NewCursor(seg)
		for c.Next() {
			fn(c.Flow(), c.Bytes(), c.TagLink())
		}
		return c.Err()
	})
	if *buf = seg; cap(seg) <= 1<<20 {
		segmentPool.Put(buf)
	}
	if err != nil {
		a.reportError(err)
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
	a.switchRecords(ctx, sw, func(flow netsim.FlowKey, bytes uint64, _ topo.LinkID) {
		out = append(out, FlowBytes{Flow: flow, Bytes: bytes})
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
	a.switchRecords(ctx, sw, func(flow netsim.FlowKey, bytes uint64, link topo.LinkID) {
		out = append(out, FlowSize{Flow: flow, Bytes: bytes, Link: link})
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
		if enc, ok = a.coldRecord(buf[:0], flow); !ok {
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
		if recs, err = flowrec.DecodeSegment(seg); err == nil {
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
	var buf [256]byte
	if enc, ok := a.coldRecord(buf[:0], flow); ok {
		return flowrec.PriorityOf(enc), true // the scan checked enc
	}
	return 0, false
}

// coldRecord appends to dst the encoding of the cold tier's last version of
// flow's record, if the host has a cold reader and any segment holds one: a
// copy, since the scratch it was read into goes back to the pool.
func (a *Agent) coldRecord(dst []byte, flow netsim.FlowKey) ([]byte, bool) {
	if a.cold == nil {
		return dst, false
	}
	sc := answerScratchPool.Get().(*answerScratch)
	defer sc.release()
	var out [1]HeadersAnswer
	sc.encs = append(sc.encs[:0], nil)
	a.readCold(sc, []HeadersQuery{{Epochs: store.EveryEpoch, Flows: []netsim.FlowKey{flow}, anySwitch: true}}, out[:])
	if len(sc.encs[0]) == 0 {
		return dst, false
	}
	return append(dst, sc.encs[0][0]...), true
}
