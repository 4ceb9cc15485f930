// Package store is the embedded flow-record store at each end host: the
// reproduction's substitute for the MongoDB instance the paper's PathDump
// deployment flushes records to (§6).
//
// It keeps records in memory sharded by flow-key hash, behind two indexes
// (by flow and by traversed switch), and writes what leaves memory (Flush,
// evictions, cold segments, snapshot frames) as flowrec segments (segment.go)
// for the "flushed to local storage" behaviour.
//
// Shards are lazy: New is one allocation, and a shard's maps (like the
// store's merge cache) are created under the lock that first writes them.
// Most of a testbed's stores never hold a record — only receivers absorb —
// and a host with one flow touches one shard of sixteen; every read path
// answers from nil maps without building anything.
package store

import (
	"fmt"
	"io"
	"slices"
	"sort"
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

// shard owns one slice of the flow-key space. Its maps stay nil until the
// first write (ensure, shardBySwitch).
type shard struct {
	// mu guards recs, bySwitch, and indexed: write-locked by mutations
	// (Acquire/Release, Get-create, Reindex, Load), read-locked by queries.
	mu       sync.RWMutex
	recs     map[netsim.FlowKey]*flowrec.Record
	bySwitch map[netsim.NodeID]map[netsim.FlowKey]struct{}
	indexed  map[netsim.FlowKey][]netsim.NodeID // path as last indexed

	// memoMu guards sorted, the shard's memoized per-switch record slices.
	// It is a leaf lock: taken under mu (either mode), never the reverse.
	memoMu sync.Mutex
	sorted map[netsim.NodeID][]*flowrec.Record
}

// RecordStore indexes flow records by flow key and by traversed switch.
//
// Records are sharded by flow-key hash with per-shard locks, so one store
// serves many concurrent queries: BySwitch answers are memoized per shard
// and merged in deterministic flow-key-sorted order, with the merged answer
// cached until any shard's membership for that switch changes.
//
// # Concurrency contract
//
// Queries (BySwitch, QueryBySwitch, View, Lookup, All, Len) are safe to
// call concurrently with each other AND with mutations: each takes the
// affected shards' read locks. Flush is also mutation-safe — it encodes
// record clones snapshotted under shard read locks, never the live records.
// There is no longer a single-owner-per-round restriction — the analyzer
// may fan any number of concurrent queries at one store and the HTTP
// binding may serve requests while the owning host is still absorbing
// packets.
//
// Mutators take one shard's write lock. The packet hot path uses the
// Acquire/Release pair, which holds the flow's shard write-locked across
// the record mutation so concurrent queries never observe a half-absorbed
// record. Get and Reindex remain for single-writer callers (tests, tools);
// a record obtained from Get may only be mutated while no concurrent
// queries run, or via Acquire/Release.
//
// Records handed out by query APIs are read-only: QueryBySwitch and View
// hold the record's shard read-locked during the callback, which is the
// only race-free way to read fields of a record that is still absorbing
// packets. BySwitch/All return the shared record pointers for
// sim-thread/serialization use; callers reading them concurrently with
// absorption must go through the callback APIs instead.
type RecordStore struct {
	shards [numShards]shard

	// mergeMu guards merged and gens. It is never held while acquiring a
	// shard lock (BySwitch releases it before touching shards), so shard
	// write paths may take it freely.
	mergeMu sync.Mutex
	merged  map[netsim.NodeID]mergedEntry
	gens    map[netsim.NodeID]uint64

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

// mergedEntry is a cached cross-shard BySwitch answer, valid while the
// switch's generation is unchanged.
type mergedEntry struct {
	recs []*flowrec.Record
	gen  uint64
}

// New returns an empty store: one allocation, no shard built yet.
func New() *RecordStore {
	return &RecordStore{}
}

// reset empties every shard, index and memo, back to the never-written
// state.
func (st *RecordStore) reset() {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		sh.recs, sh.bySwitch, sh.indexed = nil, nil, nil
		sh.memoMu.Lock()
		sh.sorted = nil
		sh.memoMu.Unlock()
		sh.mu.Unlock()
	}
	st.mergeMu.Lock()
	st.merged, st.gens = nil, nil
	st.mergeMu.Unlock()
}

// ensure builds the shard's record map and indexes ahead of its first
// write. Called with sh.mu write-locked.
func (sh *shard) ensure() {
	if sh.recs == nil {
		sh.recs = make(map[netsim.FlowKey]*flowrec.Record)
		sh.bySwitch = make(map[netsim.NodeID]map[netsim.FlowKey]struct{})
		sh.indexed = make(map[netsim.FlowKey][]netsim.NodeID)
	}
}

// shardOf hashes a flow key to its shard. The mix only spreads flows across
// shards — it never influences any query answer, which are all merged in
// flow-key-sorted order.
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

// Get returns the record for a flow, creating it if absent. See the
// concurrency contract for when the returned record may be mutated.
func (st *RecordStore) Get(flow netsim.FlowKey) *flowrec.Record {
	sh := st.shardOf(flow)
	sh.mu.Lock()
	r := getLocked(sh, flow)
	sh.mu.Unlock()
	return r
}

func getLocked(sh *shard, flow netsim.FlowKey) *flowrec.Record {
	r, ok := sh.recs[flow]
	if !ok {
		sh.ensure()
		r = flowrec.New(flow)
		sh.recs[flow] = r
	}
	return r
}

// Lookup returns the record for a flow without creating it.
func (st *RecordStore) Lookup(flow netsim.FlowKey) (*flowrec.Record, bool) {
	sh := st.shardOf(flow)
	sh.mu.RLock()
	r, ok := sh.recs[flow]
	sh.mu.RUnlock()
	return r, ok
}

// View runs fn on the record for flow (if present) with the record's shard
// read-locked, so fn may read record fields concurrently with absorption
// into the store. It reports whether the record existed. fn must not call
// back into the store.
func (st *RecordStore) View(flow netsim.FlowKey, fn func(*flowrec.Record)) bool {
	sh := st.shardOf(flow)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.recs[flow]
	if !ok {
		return false
	}
	fn(r)
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
	return getLocked(sh, flow)
}

// LockStats returns how many Acquire calls have run and how many of them
// found their shard write-contended (blocked behind another writer or any
// reader). The ratio is the shard-contention signal /metrics exports.
func (st *RecordStore) LockStats() (acquires, contended uint64) {
	return st.acquires.Load(), st.contended.Load()
}

// Generations returns the sum of every switch's merge-generation counter —
// it advances once per shard invalidation, so its rate tracks how often
// absorption churns the memoized BySwitch merges.
func (st *RecordStore) Generations() uint64 {
	st.mergeMu.Lock()
	defer st.mergeMu.Unlock()
	var total uint64
	for _, g := range st.gens {
		total += g
	}
	return total
}

// Release reindexes a record obtained from Acquire and unlocks its shard.
func (st *RecordStore) Release(r *flowrec.Record) {
	sh := st.shardOf(r.Flow)
	st.reindexLocked(sh, r)
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
	if replaced && (prev.LastSeen > rec.LastSeen ||
		(prev.LastSeen == rec.LastSeen && prev.Pkts > rec.Pkts)) {
		sh.mu.Unlock()
		return false
	}
	if replaced {
		// Wholesale replacement: the memoized per-switch answers hold the
		// OLD record pointer, so every switch the flow touches — old path
		// and new — must be invalidated even when the path is unchanged
		// (reindexLocked early-returns in that case and would leave stale
		// memos serving the superseded record).
		for _, sw := range sh.indexed[rec.Flow] {
			st.invalidate(sh, sw)
		}
	}
	sh.ensure()
	sh.recs[rec.Flow] = rec
	st.reindexLocked(sh, rec)
	if replaced {
		for _, sw := range rec.Path {
			st.invalidate(sh, sw)
		}
	}
	sh.mu.Unlock()
	return true
}

// Reindex must be called after a record's path may have changed so the
// switch index stays consistent. Switches the record no longer traverses are
// removed from the index (a rerouted flow must stop answering queries for
// its old path), newly traversed switches are added, and only the affected
// switches' memoized answers are invalidated. When the path is unchanged —
// the steady-state per-packet case — Reindex returns without touching the
// index or the caches. r must be resident (obtained from Get). Callers that
// mutate records concurrently with queries should use Acquire/Release,
// which folds this in.
func (st *RecordStore) Reindex(r *flowrec.Record) {
	sh := st.shardOf(r.Flow)
	sh.mu.Lock()
	st.reindexLocked(sh, r)
	sh.mu.Unlock()
}

func (st *RecordStore) reindexLocked(sh *shard, r *flowrec.Record) {
	prev := sh.indexed[r.Flow]
	if slices.Equal(prev, r.Path) {
		return
	}
	// Drop stale entries: switches on the old path but not the new one.
	for _, sw := range prev {
		if !slices.Contains(r.Path, sw) {
			if m, ok := sh.bySwitch[sw]; ok {
				delete(m, r.Flow)
			}
			st.invalidate(sh, sw)
		}
	}
	for _, sw := range r.Path {
		m, ok := sh.bySwitch[sw]
		if !ok {
			m = make(map[netsim.FlowKey]struct{})
			sh.bySwitch[sw] = m
		}
		if _, had := m[r.Flow]; !had {
			m[r.Flow] = struct{}{}
			st.invalidate(sh, sw)
		}
	}
	sh.indexed[r.Flow] = append(prev[:0], r.Path...)
}

// invalidate drops the shard's memoized slice for sw and bumps the switch's
// generation so an in-flight BySwitch merge cannot cache a stale answer.
// Called with sh.mu write-locked; takes only leaf locks.
func (st *RecordStore) invalidate(sh *shard, sw netsim.NodeID) {
	sh.memoMu.Lock()
	delete(sh.sorted, sw)
	sh.memoMu.Unlock()
	st.mergeMu.Lock()
	if st.gens == nil {
		st.gens = make(map[netsim.NodeID]uint64)
		st.merged = make(map[netsim.NodeID]mergedEntry)
	}
	st.gens[sw]++
	delete(st.merged, sw)
	st.mergeMu.Unlock()
}

// shardBySwitch returns the shard's memoized sorted record slice for sw,
// building it on first use. Called with sh.mu read- or write-locked.
func (sh *shard) shardBySwitch(sw netsim.NodeID) []*flowrec.Record {
	sh.memoMu.Lock()
	defer sh.memoMu.Unlock()
	if out, ok := sh.sorted[sw]; ok {
		return out
	}
	keys, ok := sh.bySwitch[sw]
	if !ok {
		return nil
	}
	out := make([]*flowrec.Record, 0, len(keys))
	for k := range keys {
		out = append(out, sh.recs[k])
	}
	sortRecords(out)
	if sh.sorted == nil {
		sh.sorted = make(map[netsim.NodeID][]*flowrec.Record)
	}
	sh.sorted[sw] = out
	return out
}

// BySwitch returns all records whose path visits sw, in deterministic
// (flow-key-sorted) order: the per-shard memoized slices merged across
// shards. The merged result is itself memoized until any shard's membership
// for sw changes; callers must treat it as read-only. To read fields of the
// returned records concurrently with absorption, use QueryBySwitch instead.
func (st *RecordStore) BySwitch(sw netsim.NodeID) []*flowrec.Record {
	st.mergeMu.Lock()
	if e, ok := st.merged[sw]; ok && e.gen == st.gens[sw] {
		st.mergeMu.Unlock()
		return e.recs
	}
	gen := st.gens[sw]
	st.mergeMu.Unlock()

	// Collect the per-shard sorted slices under read locks, then k-way
	// merge. Shards are snapshotted one at a time; the generation check at
	// caching time rejects the merge if any membership changed meanwhile.
	var parts [numShards][]*flowrec.Record
	total := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		parts[i] = sh.shardBySwitch(sw)
		sh.mu.RUnlock()
		total += len(parts[i])
	}
	var out []*flowrec.Record // nil for an unknown/empty switch — cached too
	if total > 0 {
		out = mergeSorted(parts[:], total)
	}
	st.mergeMu.Lock()
	// merged is nil until the first invalidate: nothing has been indexed
	// yet, so there is no answer worth caching.
	if st.merged != nil && st.gens[sw] == gen {
		st.merged[sw] = mergedEntry{recs: out, gen: gen}
	}
	st.mergeMu.Unlock()
	return out
}

// mergeSorted k-way merges per-shard slices that are each flow-key-sorted
// into one sorted slice.
func mergeSorted(parts [][]*flowrec.Record, total int) []*flowrec.Record {
	out := make([]*flowrec.Record, 0, total)
	var heads [numShards]int
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if heads[i] >= len(p) {
				continue
			}
			if best < 0 || flowLess(p[heads[i]].Flow, parts[best][heads[best]].Flow) {
				best = i
			}
		}
		out = append(out, parts[best][heads[best]])
		heads[best]++
	}
	return out
}

// QueryBySwitch calls fn for every record whose path visits sw, in
// flow-key-sorted order, holding each record's shard read-locked during its
// callback. This is the query executors' iteration primitive: it is safe to
// run concurrently with packet absorption (Acquire/Release) into the same
// store. fn must not call back into the store; returning false stops the
// iteration.
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

// All returns every record in deterministic order.
func (st *RecordStore) All() []*flowrec.Record {
	var out []*flowrec.Record
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, r := range sh.recs {
			out = append(out, r)
		}
		sh.mu.RUnlock()
	}
	sortRecords(out)
	return out
}

func flowLess(a, b netsim.FlowKey) bool { return flowrec.Less(a, b) }

func sortRecords(rs []*flowrec.Record) {
	sort.Slice(rs, func(i, j int) bool { return flowLess(rs[i].Flow, rs[j].Flow) })
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
		for _, r := range sh.recs {
			if MatchesEpochs(r, epochs) {
				recs = append(recs, r.Clone())
			}
		}
		sh.mu.RUnlock()
		if len(recs) == 0 {
			continue
		}
		sortRecords(recs)
		if err := fn(recs); err != nil {
			return err
		}
	}
	return nil
}

// Flush serializes the store (the periodic "flush to local storage"). It
// snapshots record clones shard by shard under read locks, so it is safe to
// run concurrently with queries and with absorption — the encoder never
// touches a record that is still being mutated.
func (st *RecordStore) Flush(w io.Writer) error {
	var recs []*flowrec.Record
	_ = st.SnapshotShards(EveryEpoch, func(shard []*flowrec.Record) error {
		recs = append(recs, shard...)
		return nil // so SnapshotShards cannot fail either
	})
	sortRecords(recs)
	return EncodeSegment(w, recs)
}

// Load restores a store serialized with Flush (reading exactly that one
// segment from r), replacing current contents. Load requires exclusive
// access: no queries or mutations may run concurrently.
func (st *RecordStore) Load(r io.Reader) error {
	recs, err := DecodeSegment(r)
	if err != nil {
		return fmt.Errorf("store: load: %w", err)
	}
	st.reset()
	for _, rec := range recs {
		st.Put(rec)
	}
	return nil
}
