// Package store is the embedded flow-record store at each end host: the
// reproduction's substitute for the MongoDB instance the paper's PathDump
// deployment flushes records to (§6).
//
// It keeps records in memory sharded by flow-key hash behind one index: a
// shard's record map, whose entries name the record and the (interned) path
// it was last filed under. Which records traverse a switch is not stored per
// record; it is a memo built by walking the shard the first time somebody
// asks, kept until a record joins or leaves that switch, and carrying each
// record's epoch range there so a (switch, epoch window) query reads ranges
// sequentially and touches only what it returns. What leaves memory
// (evictions to cold segments, snapshot frames) is written as flowrec
// segments (segment.go) for the "flushed to local storage" behaviour.
//
// Shards are lazy: New is one allocation, and a shard's maps are created
// under the lock that first writes them.
// Most of a testbed's stores never hold a record — only receivers absorb —
// and a host with one flow touches one shard of sixteen; every read path
// answers from nil maps without building anything.
package store

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// numShards is the shard count: a power of two so the flow-key hash maps to
// a shard with a mask. 16 shards keep lock contention negligible for the
// fan-out widths the analyzer uses (≤16 workers) at ~1 KB of fixed overhead
// per store.
const numShards = 16

// slot is a shard's whole per-record state: the record, and the path it was
// last indexed under as 1 + its position in shard.paths (0: none, or empty).
type slot struct {
	rec  *flowrec.Record
	path int32
}

// memo is one shard's answer for one switch: the records whose indexed path
// visits it, flow-key-sorted, and at[i] = recs[i]'s epoch range there. recs
// never changes once built (a membership change drops the whole memo, so
// refresh can binary-search it); at is rewritten in place under mu
// write-locked (refresh). Both are read under mu.
type memo struct {
	recs []*flowrec.Record
	at   []simtime.EpochRange
}

// shard owns one slice of the flow-key space. Its maps stay nil until the
// first write (ensure, memo).
type shard struct {
	// mu guards recs, paths and every memo's at: write-locked by mutations
	// (Acquire/Release, Put, eviction), read-locked by queries. paths
	// interns the distinct indexed paths; it only grows, to the few dozen
	// routes the topology has to this host.
	mu    sync.RWMutex
	recs  map[netsim.FlowKey]slot
	paths [][]netsim.NodeID
	// built is set once recs exists, so a scan can pass over a never-written
	// shard without locking it.
	built atomic.Bool

	// memoMu serializes the readers of one shard building memos into
	// memos. It is a leaf lock, taken under mu; a writer, holding mu
	// write-locked, excludes every reader and touches memos without it.
	memoMu sync.Mutex
	memos  map[netsim.NodeID]memo
}

// RecordStore indexes flow records by flow key and answers by traversed
// switch.
//
// Records are sharded by flow-key hash with per-shard locks, so one store
// serves many concurrent queries. Its one read primitive by switch is
// QueryWindow, which scans the shards' memos and their inline epoch ranges
// shard by shard.
//
// # Concurrency contract
//
// Queries (QueryWindow, View, Lookup, All, Len, SnapshotShards) are safe to
// call concurrently with each other AND with mutations: each takes the
// affected shards' read locks. The analyzer may fan any number of concurrent
// queries at one store and the HTTP binding may serve requests while the
// owning host is still absorbing packets.
//
// Mutators take one shard's write lock. The packet hot path uses the
// Acquire/Release pair, which holds the flow's shard write-locked across
// the record mutation so concurrent queries never observe a half-absorbed
// record; Put installs a record absorbed elsewhere.
//
// Whoever changes a resident record's Path or Epochs owes the store a
// Release or Put: that re-files the record and refreshes the epoch ranges
// the memos carry. Release skips it only when Record.Absorb vouches that
// nothing indexable changed. Lock order: shard mu, then the shard's memoMu
// (a leaf).
//
// Records handed out by query APIs are read-only: QueryWindow and View hold
// the record's shard read-locked during the callback, which is the only
// race-free way to read fields of a record that is still absorbing packets.
// All returns the shared record pointers for sim-thread/serialization use;
// callers reading them concurrently with absorption must go through the
// callback APIs instead.
type RecordStore struct {
	shards [numShards]shard

	// invalidations counts invalidate calls: memos dropped because a record
	// joined or left a switch in some shard.
	invalidations atomic.Uint64

	// ret holds the optional eviction policy (see SetRetention/Maintain in
	// retention.go). Zero value = no eviction.
	ret retention

	// acquires/contended count Acquire calls and the subset that found
	// their shard's write lock already held — the shard-contention signal
	// the metrics plane exports. Atomics, so scrapes never touch a shard
	// lock.
	acquires  atomic.Uint64
	contended atomic.Uint64
}

// New returns an empty store: one allocation, no shard built yet.
func New() *RecordStore {
	return &RecordStore{}
}

// ensure builds the shard's record map ahead of its first write. Called
// with sh.mu write-locked.
func (sh *shard) ensure() {
	if sh.recs == nil {
		sh.recs = make(map[netsim.FlowKey]slot)
		sh.built.Store(true)
	}
}

// shardOf hashes a flow key to its shard. The mix only spreads flows across
// shards: every caller that needs an order sorts by flow key, so it never
// influences an answer.
func (st *RecordStore) shardOf(flow netsim.FlowKey) *shard {
	h := uint64(flow.Src)<<32 | uint64(flow.Dst)
	h ^= uint64(flow.SrcPort)<<24 ^ uint64(flow.DstPort)<<8 ^ uint64(flow.Proto)
	// splitmix64-style avalanche so adjacent IPs land on different shards.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return &st.shards[h&(numShards-1)]
}

// Len returns the number of records.
func (st *RecordStore) Len() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		n += len(sh.recs)
		sh.mu.RUnlock()
	}
	return n
}

// getLocked must stay small enough to inline: hashing a copy of flow freshly
// spilled for a call stalls on store forwarding, ≈ 20 ns per packet.
func getLocked(sh *shard, flow netsim.FlowKey) *flowrec.Record {
	s, ok := sh.recs[flow]
	if !ok {
		sh.ensure()
		s.rec = flowrec.New(flow)
		sh.recs[flow] = s
	}
	return s.rec
}

// Lookup returns the record for a flow without creating it.
func (st *RecordStore) Lookup(flow netsim.FlowKey) (*flowrec.Record, bool) {
	sh := st.shardOf(flow)
	sh.mu.RLock()
	s, ok := sh.recs[flow]
	sh.mu.RUnlock()
	return s.rec, ok
}

// View runs fn on the record for flow (if present) with the record's shard
// read-locked, so fn may read record fields concurrently with absorption
// into the store. It reports whether the record existed. fn must not call
// back into the store.
func (st *RecordStore) View(flow netsim.FlowKey, fn func(*flowrec.Record)) bool {
	sh := st.shardOf(flow)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s, ok := sh.recs[flow]
	if !ok {
		return false
	}
	fn(s.rec)
	return true
}

// Acquire returns the record for a flow — created if absent — with its
// shard write-locked for mutation. Every Acquire must be paired with a
// Release of the same record, which reindexes it and unlocks the shard.
// The pair is the packet-absorption hot path: it performs zero heap
// allocations at steady state and makes the mutation atomic with respect
// to concurrent queries.
func (st *RecordStore) Acquire(flow netsim.FlowKey) *flowrec.Record {
	sh := st.shardOf(flow)
	st.acquires.Add(1)
	if !sh.mu.TryLock() {
		st.contended.Add(1)
		sh.mu.Lock()
	}
	r := getLocked(sh, flow)
	r.TakeSteady() // only an Absorb inside this Acquire/Release may vouch
	return r
}

// LockStats returns how many Acquire calls have run and how many of them
// found their shard write-contended (blocked behind another writer or any
// reader). The ratio is the shard-contention signal /metrics exports.
func (st *RecordStore) LockStats() (acquires, contended uint64) {
	return st.acquires.Load(), st.contended.Load()
}

// Generations returns how many memos have been invalidated: each count is a
// record joining or leaving a switch in some shard (never a mere epoch
// widening), so its rate tracks how often absorption churns membership.
func (st *RecordStore) Generations() uint64 {
	return st.invalidations.Load()
}

// Release unlocks the shard of a record obtained from Acquire, reindexing it
// first unless its Absorb vouched that neither path nor epochs moved — the
// per-packet steady state, which then costs no map lookup.
func (st *RecordStore) Release(r *flowrec.Record) {
	sh := st.shardOf(r.Flow)
	if !r.TakeSteady() {
		st.reindexLocked(sh, r)
	}
	sh.mu.Unlock()
}

// Put installs (or wholesale replaces) a record under its shard's write
// lock and reindexes it — the state-sync ingestion primitive: snapshot
// bootstrap and live ingest feeds install records that were absorbed
// elsewhere, so there is no local record to Acquire and mutate. The store
// takes ownership of rec; callers must pass a clone when they keep using
// the record.
//
// Replacement is recency-guarded: a record strictly older than the
// resident one (by LastSeen, then Pkts) is dropped, so the freshest
// version wins regardless of arrival order — a snapshot segment cloned
// before an ingest update can race the feed and land after it without
// clobbering the newer state. Equal-recency Puts replace, keeping
// idempotent re-feeds honest. It reports whether rec was installed.
func (st *RecordStore) Put(rec *flowrec.Record) bool {
	sh := st.shardOf(rec.Flow)
	sh.mu.Lock()
	prev, replaced := sh.recs[rec.Flow]
	if replaced && (prev.rec.LastSeen > rec.LastSeen ||
		(prev.rec.LastSeen == rec.LastSeen && prev.rec.Pkts > rec.Pkts)) {
		sh.mu.Unlock()
		return false
	}
	if replaced {
		// Wholesale replacement: the memoized per-switch answers hold the
		// OLD record pointer, so every switch the flow touches — old path
		// and new — must be invalidated even when the path is unchanged
		// (reindexLocked invalidates nothing in that case and would leave
		// stale memos serving the superseded record).
		for _, sw := range sh.pathOf(prev) {
			st.invalidate(sh, sw)
		}
	}
	sh.ensure()
	rec.TakeSteady()
	sh.recs[rec.Flow] = slot{rec: rec, path: prev.path}
	st.reindexLocked(sh, rec)
	if replaced {
		for _, sw := range rec.Path {
			st.invalidate(sh, sw)
		}
	}
	sh.mu.Unlock()
	return true
}

// pathOf returns the path s was last indexed under (nil before the first).
func (sh *shard) pathOf(s slot) []netsim.NodeID {
	if s.path == 0 {
		return nil
	}
	return sh.paths[s.path-1]
}

// intern returns path's slot value, adding it to the table when new.
func (sh *shard) intern(path []netsim.NodeID) int32 {
	if len(path) == 0 {
		return 0
	}
	for i, p := range sh.paths {
		if slices.Equal(p, path) {
			return int32(i + 1)
		}
	}
	sh.paths = append(sh.paths, slices.Clone(path))
	return int32(len(sh.paths))
}

// reindexLocked re-files resident record r under its current path,
// invalidating (shard, sw) for every switch that left or joined it (a
// rerouted flow stops answering for its old path), and refreshes r's ranges
// in the surviving memos. sh.mu is write-locked.
func (st *RecordStore) reindexLocked(sh *shard, r *flowrec.Record) {
	s := sh.recs[r.Flow]
	if prev := sh.pathOf(s); !slices.Equal(prev, r.Path) {
		for _, sw := range prev {
			if !slices.Contains(r.Path, sw) {
				st.invalidate(sh, sw)
			}
		}
		for i, sw := range r.Path {
			if !slices.Contains(prev, sw) && !slices.Contains(r.Path[:i], sw) {
				st.invalidate(sh, sw)
			}
		}
		s.path = sh.intern(r.Path)
		sh.recs[r.Flow] = s
	}
	sh.refresh(r)
}

// refresh rewrites r's epoch range in every memo that lists it: widening is
// not a membership change, so nothing is invalidated. sh.mu is write-locked.
func (sh *shard) refresh(r *flowrec.Record) {
	if len(sh.memos) == 0 {
		return
	}
	for _, sw := range r.Path {
		m, ok := sh.memos[sw]
		if !ok {
			continue
		}
		i, found := slices.BinarySearchFunc(m.recs, r.Flow, func(e *flowrec.Record, k netsim.FlowKey) int {
			return flowrec.Compare(e.Flow, k)
		})
		if found {
			m.at[i] = epochsAt(r, sw)
		}
	}
}

// epochsAt is r.EpochsAt(sw), or a range no window overlaps when r has none.
func epochsAt(r *flowrec.Record, sw netsim.NodeID) simtime.EpochRange {
	if at, ok := r.EpochsAt(sw); ok {
		return at
	}
	return simtime.EpochRange{Lo: math.MaxInt64, Hi: math.MinInt64}
}

// invalidate drops the shard's memo for sw and counts the event (see
// Generations). Called with sh.mu write-locked.
func (st *RecordStore) invalidate(sh *shard, sw netsim.NodeID) {
	delete(sh.memos, sw)
	st.invalidations.Add(1)
}

// memo returns the shard's memo for sw, building it on first use from the
// records whose indexed path visits sw (none: the zero memo, uncached).
// Called with sh.mu read- or write-locked.
func (sh *shard) memo(sw netsim.NodeID) memo {
	sh.memoMu.Lock()
	defer sh.memoMu.Unlock()
	if m, ok := sh.memos[sw]; ok {
		return m
	}
	visits := make([]bool, len(sh.paths)+1) // by slot.path
	for i, p := range sh.paths {
		visits[i+1] = slices.Contains(p, sw)
	}
	if !slices.Contains(visits, true) {
		return memo{}
	}
	// Count first: growing from nil leaves discarded copies of the slice.
	n := 0
	for _, s := range sh.recs {
		if visits[s.path] {
			n++
		}
	}
	m := memo{recs: make([]*flowrec.Record, 0, n), at: make([]simtime.EpochRange, n)}
	for _, s := range sh.recs {
		if visits[s.path] {
			m.recs = append(m.recs, s.rec)
		}
	}
	flowrec.SortRecords(m.recs)
	for i, r := range m.recs {
		m.at[i] = epochsAt(r, sw)
	}
	if sh.memos == nil {
		sh.memos = make(map[netsim.NodeID]memo)
	}
	sh.memos[sw] = m
	return m
}

// BySwitch returns every record with an epoch range at sw (Record.Traverses),
// in flow-key order: QueryWindow over EveryEpoch, sorted, uncached. No
// production path calls it; it stays for tests and for the benchmark's
// per-layer rungs until those read QueryWindow. The records are shared:
// callers must treat them as read-only.
func (st *RecordStore) BySwitch(sw netsim.NodeID) []*flowrec.Record {
	var out []*flowrec.Record
	st.QueryWindow(sw, EveryEpoch, func(r *flowrec.Record) { out = append(out, r) })
	flowrec.SortRecords(out)
	return out
}

// QueryBySwitch calls fn for every record of BySwitch(sw), in its order,
// holding each record's shard read-locked during its callback; returning
// false stops the iteration. Like BySwitch it is kept only for tests and the
// benchmark's rungs. fn must not call back into the store.
func (st *RecordStore) QueryBySwitch(sw netsim.NodeID, fn func(*flowrec.Record) bool) {
	for _, r := range st.BySwitch(sw) {
		sh := st.shardOf(r.Flow)
		sh.mu.RLock()
		cont := fn(r)
		sh.mu.RUnlock()
		if !cont {
			return
		}
	}
}

// QueryWindow calls fn for every record whose path visits sw and whose
// epoch range at sw overlaps window — the "(switchID, epochID) pair" filter
// every diagnosis starts from. Per written shard (a never-written one is not
// even locked) it takes the read lock once, reads the memo's ranges
// sequentially and touches only the records it hands to fn. Safe concurrently
// with absorption; fn runs under the shard read lock and must not call back
// into the store. Records arrive shard by shard, flow-key-sorted within one:
// a caller that wants the global order sorts its (answer-sized) result.
func (st *RecordStore) QueryWindow(sw netsim.NodeID, window simtime.EpochRange, fn func(*flowrec.Record)) {
	for i := range st.shards {
		sh := &st.shards[i]
		if !sh.built.Load() {
			continue
		}
		sh.mu.RLock()
		m := sh.memo(sw)
		for j, at := range m.at {
			if at.Overlaps(window) {
				fn(m.recs[j])
			}
		}
		sh.mu.RUnlock()
	}
}

// All returns every record in deterministic order.
func (st *RecordStore) All() []*flowrec.Record {
	var out []*flowrec.Record
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, s := range sh.recs {
			out = append(out, s.rec)
		}
		sh.mu.RUnlock()
	}
	flowrec.SortRecords(out)
	return out
}

// MatchesEpochs reports whether a record is addressed by the given epoch
// window: any of its per-switch epoch ranges overlaps it. The full range
// (EverySegment) matches records with no telemetry epochs too.
func MatchesEpochs(rec *flowrec.Record, epochs simtime.EpochRange) bool {
	if epochs == EveryEpoch {
		return true
	}
	for _, er := range rec.Epochs {
		if er.Overlaps(epochs) {
			return true
		}
	}
	return false
}

// EveryEpoch is the epoch window that addresses all records — what a
// snapshot pull without an explicit window uses.
var EveryEpoch = simtime.EpochRange{Lo: simtime.Epoch(-1 << 62), Hi: simtime.Epoch(1 << 62)}

// SnapshotShards calls fn once per non-empty shard with record clones
// matching the epoch window, in shard order. The clones are taken with only
// that shard's read lock held, and fn runs with no locks held at all — so a
// caller streaming a large store over the network (the state-sync snapshot
// path) never stalls packet absorption: at most one shard is briefly
// read-locked while the other fifteen keep absorbing and answering queries.
// The per-shard record slices are flow-key-sorted, so a concatenation of the
// shard segments is deterministic up to shard hashing (which is fixed).
// fn returning an error aborts the walk.
func (st *RecordStore) SnapshotShards(epochs simtime.EpochRange, fn func(recs []*flowrec.Record) error) error {
	for i := range st.shards {
		sh := &st.shards[i]
		var recs []*flowrec.Record
		sh.mu.RLock()
		for _, s := range sh.recs {
			if MatchesEpochs(s.rec, epochs) {
				recs = append(recs, s.rec.Clone())
			}
		}
		sh.mu.RUnlock()
		if len(recs) == 0 {
			continue
		}
		flowrec.SortRecords(recs)
		if err := fn(recs); err != nil {
			return err
		}
	}
	return nil
}
