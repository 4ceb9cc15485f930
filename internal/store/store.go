// Package store is the embedded flow-record store at each end host: the
// reproduction's substitute for the MongoDB instance the paper's PathDump
// deployment flushes records to (§6).
//
// It keeps records in memory sharded by flow-key hash behind one index: a
// shard's slots, each naming a record and the (interned) path it was last
// filed under, found through a map once the shard outgrows a few records. A
// slot holds its record in one of two states. Live records are the
// *flowrec.Record the packet path absorbs into. Encoded records — everything
// Put installs, which the host did not absorb itself — are the bytes
// flowrec.AppendRecord gives, kept in a per-shard arena (arena.go): the same
// form a segment carries on disk and on the wire, at about a sixth of a live
// record's memory. An encoded record turns live, once, when the packet path
// acquires it. The packet path reaches a flow's record through a Handle,
// the record's shard and slot, which it keeps per flow: while the slot's live
// record carries the flow, no hash or find runs. Query callbacks read an encoded record through a scratch
// decode valid only during the call, and answers that leave the host as
// bytes copy an encoded record's bytes without decoding them.
//
// Which records traverse a switch is not stored per record; it is a memo
// built by walking the shard the first time somebody asks, kept until a
// record joins or leaves that switch, and carrying each record's epoch range
// there so a (switch, epoch window) query reads ranges sequentially and
// touches only what it returns. Whatever leaves memory — an eviction to a
// cold segment, a snapshot segment, a catch-up feed batch — leaves as a copy
// of its records' stored bytes (a live record encoded) spliced into one
// flowrec segment (segment.go): the "flushed to local storage" behaviour,
// with no record decoded and re-encoded on the way out.
//
// Shards are lazy: New is one allocation, and a shard's table is created
// under the lock that first writes it.
// Most of a testbed's stores never hold a record — only receivers absorb —
// and a host with one flow touches one shard of sixteen; every read path
// answers from an unbuilt shard without building anything.
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

// smallShard is how many slots a shard scans before it keeps an index map:
// most stores hold a record or two per shard, and a map costs them two
// allocations and a few hundred bytes.
const smallShard = 8

// slot is a shard's whole per-record state: the record — live in rec, or
// encoded at off in the shard's arena when rec is nil — and the path it was
// last indexed under as 1 + its position in shard.paths (0: none, or empty;
// freeSlot: the slot holds no record).
type slot struct {
	rec  *flowrec.Record
	off  uint32
	path int32
}

const freeSlot = -1

// memo is one shard's answer for one switch: the slots whose indexed path
// visits it, in their records' flow-key order, and at[i] = that record's
// epoch range there. slots never changes once built (a membership change
// drops the whole memo, so refresh can binary-search it); at is rewritten in
// place under mu write-locked (refresh). Both are read under mu. A slot turning
// from encoded to live keeps its number, so it touches no memo.
type memo struct {
	slots []int32
	at    []simtime.EpochRange
}

// shard owns one slice of the flow-key space: a lock, and the table of its
// records from the first write on. A testbed builds one store per host and
// most hold a record or two, so everything else waits behind the pointer.
type shard struct {
	// mu guards the table's contents but memoMu and memos: write-locked by
	// mutations (Acquire/Release, Put, eviction), read-locked by queries.
	mu sync.RWMutex
	// tab is set once, by the first write, under mu write-locked; a scan
	// loads it to pass over a never-written shard without locking it.
	tab atomic.Pointer[table]
}

// table is a written shard's records. index maps a flow to its slot once the
// table outgrows smallShard (a smaller one scans slots); free lists the
// slots eviction emptied. paths interns the distinct indexed paths; it only
// grows, to the few dozen routes the topology has to this host.
type table struct {
	index map[netsim.FlowKey]int32
	slots []slot
	free  []int32
	paths [][]netsim.NodeID
	arena arena

	// memoMu serializes the readers of one shard building memos into
	// memos. It is a leaf lock, taken under the shard's mu; a writer,
	// holding mu write-locked, excludes every reader and touches memos
	// without it.
	memoMu sync.Mutex
	memos  map[netsim.NodeID]memo
}

// table returns the shard's table, building it on the first write. sh.mu is
// write-locked.
func (sh *shard) table() *table {
	t := sh.tab.Load()
	if t == nil {
		t = new(table)
		sh.tab.Store(t)
	}
	return t
}

// RecordStore indexes flow records by flow key and answers by traversed
// switch.
//
// Records are sharded by flow-key hash with per-shard locks, so one store
// serves many concurrent queries. Its one read primitive by switch is
// QueryWindow (QueryWindowEncoded for an answer that leaves as bytes), which
// scans the shards' memos and their inline epoch ranges shard by shard.
//
// # Two slot states
//
// A record is either live — a *flowrec.Record the packet path mutates — or
// encoded: the bytes flowrec.AppendRecord gives, in its shard's arena, about
// a sixth of a live record's memory. Put encodes and keeps nothing of the
// record it is given. Acquire turns an encoded record live, once, and it
// stays live. Neither change moves the record in any memo, so neither counts
// as an invalidation.
//
// # Concurrency contract
//
// Queries (QueryWindow, QueryWindowEncoded, View, AppendEncoded, Lookup, Len,
// SnapshotShards) are safe to call concurrently with each other AND with
// mutations: each takes the affected shards' read locks. The analyzer may
// fan any number of concurrent queries at one store and the HTTP binding may
// serve requests while the owning host is still absorbing packets.
//
// Mutators take one shard's write lock. The packet hot path uses the
// Acquire/Release pair, which holds the flow's shard write-locked across
// the record mutation so concurrent queries never observe a half-absorbed
// record; Put installs a record absorbed elsewhere. The host agent calls
// the pair's handle form, AcquireHandle/ReleaseHandle, with a Handle it
// keeps per flow; a Handle belongs to the one goroutine absorbing packets
// (it is not locked), and any mutation of the store may leave it stale,
// which AcquireHandle detects under the shard lock.
//
// Whoever changes a live record's Path or Epochs owes the store a Release:
// that re-files the record and refreshes the epoch ranges the memos carry.
// Release skips it only when Record.Absorb vouches that nothing indexable
// changed. Lock order: shard mu, then the shard's memoMu (a leaf).
//
// Records handed to QueryWindow and View callbacks are read-only and valid
// only during the call: a live record is the store's own, read under its
// shard's read lock (the only race-free way to read a record that is still
// absorbing packets); an encoded one is decoded into a scratch record that
// the next callback reuses. Copy what must outlive the call. Lookup and
// BySwitch return fresh records the caller owns; SnapshotShards hands out
// segments of stored bytes, each valid only during its callback.
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

// shardOf hashes a flow key to its shard. The mix only spreads flows across
// shards: every caller that needs an order sorts by flow key, so it never
// influences an answer. It takes the key by pointer: an inlined copy of a
// key just stored field by field is read back as one 16-byte load, which
// stalls on store forwarding (≈ 8 % of an Acquire/Absorb/Release).
func (st *RecordStore) shardOf(flow *netsim.FlowKey) *shard {
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
		if t := sh.tab.Load(); t != nil {
			sh.mu.RLock()
			n += len(t.slots) - len(t.free)
			sh.mu.RUnlock()
		}
	}
	return n
}

// flowOf returns the flow key of the record in slot i.
func (t *table) flowOf(i int32) netsim.FlowKey {
	if s := &t.slots[i]; s.rec != nil {
		return s.rec.Flow
	}
	return flowrec.FlowOf(t.arena.get(t.slots[i].off))
}

// find returns flow's slot, or -1. Called with the shard's mu held.
func (t *table) find(flow netsim.FlowKey) int32 {
	if t.index != nil {
		if i, ok := t.index[flow]; ok {
			return i
		}
		return -1
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.rec != nil && s.rec.Flow == flow ||
			s.rec == nil && s.path != freeSlot && flowrec.FlowOf(t.arena.get(s.off)) == flow {
			return int32(i)
		}
	}
	return -1
}

// insert files s, the record of flow, in a free slot or a new one and
// returns its number; a table outgrowing smallShard gets its index here.
// The shard's mu is write-locked.
func (t *table) insert(flow netsim.FlowKey, s slot) int32 {
	var i int32
	if n := len(t.free); n > 0 {
		i, t.free = t.free[n-1], t.free[:n-1]
		t.slots[i] = s
	} else {
		i = int32(len(t.slots))
		t.slots = append(t.slots, s)
	}
	if t.index != nil {
		t.index[flow] = i
	} else if len(t.slots) > smallShard {
		t.index = make(map[netsim.FlowKey]int32, len(t.slots))
		for j := range t.slots {
			if t.slots[j].path != freeSlot {
				t.index[t.flowOf(int32(j))] = int32(j)
			}
		}
	}
	return i
}

// remove empties slot i, the record of flow. The shard's mu is
// write-locked.
func (t *table) remove(i int32, flow netsim.FlowKey) {
	if s := &t.slots[i]; s.rec == nil {
		t.arena.drop(s.off)
	}
	t.slots[i] = slot{path: freeSlot}
	t.free = append(t.free, i)
	if t.index != nil {
		delete(t.index, flow)
	}
	t.compact()
}

// compact copies the table's encoded records into fresh storage once half
// of it is dead. Offsets change; slot numbers, and so memos, do not. The
// shard's mu is write-locked.
func (t *table) compact() {
	if !t.arena.halfDead() {
		return
	}
	old := t.arena
	t.arena = arena{}
	for i := range t.slots {
		if s := &t.slots[i]; s.rec == nil && s.path != freeSlot {
			s.off = t.arena.add(old.get(s.off))
		}
	}
}

// record returns slot i's record: the live one, or its encoding decoded
// into sc. Called with the shard's mu held.
func (t *table) record(i int32, sc *scratch) *flowrec.Record {
	if s := &t.slots[i]; s.rec != nil {
		return s.rec
	}
	return sc.decode(t.arena.get(t.slots[i].off))
}

// appendEncoding appends slot i's encoding to dst: its stored bytes, or the
// live record encoded. Called with the shard's mu held.
func (t *table) appendEncoding(dst []byte, i int32) []byte {
	if s := &t.slots[i]; s.rec != nil {
		return flowrec.AppendRecord(dst, s.rec)
	}
	return append(dst, t.arena.get(t.slots[i].off)...)
}

// encoding returns slot i's encoding, valid and unchanged after the lock is
// released: its stored bytes, which the arena never overwrites, or the live
// record encoded onto buf, which only grows; it returns buf. Called with the
// shard's mu held.
func (t *table) encoding(i int32, buf []byte) (enc, grown []byte) {
	if s := &t.slots[i]; s.rec == nil {
		return t.arena.get(s.off), buf
	}
	start := len(buf)
	buf = t.appendEncoding(buf, i)
	return buf[start:len(buf):len(buf)], buf
}

// scratch lends a pooled flowrec.Scratch to one query, taken on the first
// encoded record it reads.
type scratch struct{ sc *flowrec.Scratch }

var scratchPool = sync.Pool{New: func() any { return new(flowrec.Scratch) }}

func (s *scratch) decode(enc []byte) *flowrec.Record {
	if s.sc == nil {
		s.sc = scratchPool.Get().(*flowrec.Scratch)
	}
	r, err := s.sc.Decode(enc)
	if err != nil {
		panic(corrupt(err))
	}
	return r
}

func (s *scratch) release() {
	if s.sc != nil {
		scratchPool.Put(s.sc)
		s.sc = nil
	}
}

// decodeStored decodes bytes the store wrote itself into a fresh record.
func decodeStored(enc []byte) *flowrec.Record {
	r, err := flowrec.DecodeRecord(enc)
	if err != nil {
		panic(corrupt(err))
	}
	return r
}

// corrupt is the panic value for stored bytes that do not decode: the arena
// holds only what AppendRecord wrote, so it means memory corruption.
func corrupt(err error) string { return "store: corrupt arena: " + err.Error() }

// liveSlot returns flow's slot, holding a live record: flow's record, an
// encoded record turned live — its one decode, after which the absorb path
// owns it — or a new record. The shard's mu is write-locked.
func (t *table) liveSlot(flow netsim.FlowKey) (int32, *flowrec.Record) {
	i := t.find(flow)
	if i < 0 {
		i = t.insert(flow, slot{rec: flowrec.New(flow)})
	}
	s := &t.slots[i]
	if s.rec == nil {
		r := decodeStored(t.arena.get(s.off))
		t.arena.drop(s.off)
		s.rec, s.off = r, 0
		t.compact()
	}
	return i, s.rec
}

// Lookup returns a copy of the record for a flow, taken under its shard's
// read lock, without creating it.
func (st *RecordStore) Lookup(flow netsim.FlowKey) (*flowrec.Record, bool) {
	enc, ok := st.AppendEncoded(nil, flow)
	if !ok {
		return nil, false
	}
	return decodeStored(enc), true
}

// View runs fn on the record for flow (if present) with the record's shard
// read-locked, so fn may read record fields concurrently with absorption
// into the store. The record is valid only during the call (see
// RecordStore). It reports whether the record existed. fn must not call back
// into the store.
func (st *RecordStore) View(flow netsim.FlowKey, fn func(*flowrec.Record)) bool {
	sh := st.shardOf(&flow)
	t := sh.tab.Load()
	if t == nil {
		return false
	}
	var sc scratch
	defer sc.release()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	i := t.find(flow)
	if i < 0 {
		return false
	}
	fn(t.record(i, &sc))
	return true
}

// AppendEncoded appends the encoding of flow's record (as
// flowrec.AppendRecord writes it) to dst, copied or encoded under the
// record's shard read lock, and reports whether the record existed.
func (st *RecordStore) AppendEncoded(dst []byte, flow netsim.FlowKey) ([]byte, bool) {
	sh := st.shardOf(&flow)
	t := sh.tab.Load()
	if t == nil {
		return dst, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	i := t.find(flow)
	if i < 0 {
		return dst, false
	}
	return t.appendEncoding(dst, i), true
}

// Handle is where the packet path last found a flow's live record: the
// record's shard and slot. A caller keeps one per flow and passes it to
// AcquireHandle and ReleaseHandle, which then skip the shard hash and the
// slot find. The zero Handle is empty. A handle is valid while its slot's
// live record carries its flow; otherwise — the record evicted, Put
// replacing it with an encoded one, another flow reusing the freed slot —
// AcquireHandle finds the flow afresh. The check needs no generation
// counter: a table holds at most one slot per flow; eviction, Put
// replacement and an encoded slot all leave the slot without a live record;
// and compaction moves arena offsets but never slot numbers.
type Handle struct {
	sh   *shard
	slot int32 // -1: not found yet
}

// Acquire returns the record for a flow — created if absent, decoded once if
// encoded — with its shard write-locked for mutation. Every Acquire must be
// paired with a Release of the same record, which reindexes it and unlocks
// the shard. The pair makes the mutation atomic with respect to concurrent
// queries and performs zero heap allocations at steady state. The packet
// path uses its handle form, AcquireHandle and ReleaseHandle.
func (st *RecordStore) Acquire(flow netsim.FlowKey) *flowrec.Record {
	return st.AcquireHandle(flow, &Handle{})
}

// AcquireHandle is Acquire through h, flow's handle: while h is valid it
// reaches the record without a lookup; otherwise it finds (or creates) the
// record and points h at it. Pair it with ReleaseHandle(*h, record).
func (st *RecordStore) AcquireHandle(flow netsim.FlowKey, h *Handle) *flowrec.Record {
	sh, i := h.sh, h.slot
	if sh == nil {
		sh, i = st.shardOf(&flow), -1
	}
	st.acquires.Add(1)
	if !sh.mu.TryLock() {
		st.contended.Add(1)
		sh.mu.Lock()
	}
	t := sh.tab.Load()
	var r *flowrec.Record
	if t != nil && i >= 0 {
		r = t.slots[i].rec
	}
	if r == nil || r.Flow != flow {
		if i = indexedLive(t, flow); i >= 0 {
			r = t.slots[i].rec
		} else {
			i, r = sh.table().liveSlot(flow)
		}
	}
	*h = Handle{sh: sh, slot: i}
	r.TakeSteady() // only an Absorb inside this Acquire/Release may vouch
	return r
}

// indexedLive returns the slot of flow's live record in an indexed table, or
// -1: liveSlot takes every other case. It must stay small enough to inline:
// hashing a copy of flow freshly spilled for a call stalls on store
// forwarding, ≈ 20 ns per packet.
func indexedLive(t *table, flow netsim.FlowKey) int32 {
	if t != nil {
		if i, ok := t.index[flow]; ok && t.slots[i].rec != nil {
			return i
		}
	}
	return -1
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
// per-packet steady state, which then costs no lookup.
func (st *RecordStore) Release(r *flowrec.Record) {
	st.ReleaseHandle(Handle{sh: st.shardOf(&r.Flow), slot: -1}, r)
}

// ReleaseHandle is Release of r, obtained from AcquireHandle(r.Flow, &h).
func (st *RecordStore) ReleaseHandle(h Handle, r *flowrec.Record) {
	if !r.TakeSteady() {
		st.refile(h, r)
	}
	h.sh.mu.Unlock()
}

// refile is ReleaseHandle's reindex of r, whose Absorb did not vouch for it.
func (st *RecordStore) refile(h Handle, r *flowrec.Record) {
	t := h.sh.tab.Load()
	i := h.slot
	if i < 0 {
		i = t.find(r.Flow)
	}
	st.reindexLocked(t, i, r)
}

// Put installs (or wholesale replaces) a record under its shard's write
// lock and reindexes it — the state-sync install primitive: a snapshot
// bootstrap (or a preloaded fixture) installs records that were absorbed
// elsewhere, so there is no local record to Acquire and mutate. The store
// keeps rec's encoding, not rec: the caller keeps the record.
//
// Replacement is recency-guarded by flowrec.Supersedes: a record older than
// the resident one is dropped, so a stale copy of a flow — a second
// bootstrap from an older peer, a repeated segment — can never clobber the
// newer state. It reports whether rec was installed.
func (st *RecordStore) Put(rec *flowrec.Record) bool {
	var buf [256]byte // most records encode in fewer bytes
	enc := flowrec.AppendRecord(buf[:0], rec)
	sh := st.shardOf(&rec.Flow)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.table()
	i := t.find(rec.Flow)
	replaced := i >= 0
	if replaced {
		var sc scratch
		prev := t.record(i, &sc)
		newer := flowrec.Supersedes(rec, prev)
		sc.release()
		if !newer {
			return false
		}
		// Wholesale replacement: the record's bytes change, so every switch
		// the flow touches — old path and new — must be invalidated even
		// when the path is unchanged (reindexLocked invalidates nothing in
		// that case and would leave stale epoch ranges in the memos).
		s := &t.slots[i]
		for _, sw := range t.pathOf(*s) {
			st.invalidate(t, sw)
		}
		if s.rec == nil {
			t.arena.drop(s.off)
		}
		s.rec, s.off = nil, t.arena.add(enc)
	} else {
		i = t.insert(rec.Flow, slot{off: t.arena.add(enc)})
	}
	st.reindexLocked(t, i, rec)
	if replaced {
		for _, sw := range rec.Path {
			st.invalidate(t, sw)
		}
	}
	t.compact()
	return true
}

// pathOf returns the path s was last indexed under (nil before the first).
func (t *table) pathOf(s slot) []netsim.NodeID {
	if s.path <= 0 {
		return nil
	}
	return t.paths[s.path-1]
}

// intern returns path's slot value, adding it to the table when new.
func (t *table) intern(path []netsim.NodeID) int32 {
	if len(path) == 0 {
		return 0
	}
	for i, p := range t.paths {
		if slices.Equal(p, path) {
			return int32(i + 1)
		}
	}
	t.paths = append(t.paths, slices.Clone(path))
	return int32(len(t.paths))
}

// reindexLocked re-files the record in slot i, r, under its current path,
// invalidating (shard, sw) for every switch that left or joined it (a
// rerouted flow stops answering for its old path), and refreshes r's ranges
// in the surviving memos. The shard's mu is write-locked.
func (st *RecordStore) reindexLocked(t *table, i int32, r *flowrec.Record) {
	s := &t.slots[i]
	if prev := t.pathOf(*s); !slices.Equal(prev, r.Path) {
		for _, sw := range prev {
			if !slices.Contains(r.Path, sw) {
				st.invalidate(t, sw)
			}
		}
		for i, sw := range r.Path {
			if !slices.Contains(prev, sw) && !slices.Contains(r.Path[:i], sw) {
				st.invalidate(t, sw)
			}
		}
		s.path = t.intern(r.Path)
	}
	t.refresh(r)
}

// refresh rewrites r's epoch range in every memo that lists it: widening is
// not a membership change, so nothing is invalidated. The shard's mu is
// write-locked.
func (t *table) refresh(r *flowrec.Record) {
	if len(t.memos) == 0 {
		return
	}
	for _, sw := range r.Path {
		m, ok := t.memos[sw]
		if !ok {
			continue
		}
		i, found := slices.BinarySearchFunc(m.slots, r.Flow, func(s int32, k netsim.FlowKey) int {
			return flowrec.Compare(t.flowOf(s), k)
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
// Generations). Called with the shard's mu write-locked.
func (st *RecordStore) invalidate(t *table, sw netsim.NodeID) {
	delete(t.memos, sw)
	st.invalidations.Add(1)
}

// memo returns the shard's memo for sw, building it on first use from the
// records whose indexed path visits sw (none: the zero memo, uncached).
// Called with the shard's mu read- or write-locked.
func (t *table) memo(sw netsim.NodeID) memo {
	t.memoMu.Lock()
	defer t.memoMu.Unlock()
	if m, ok := t.memos[sw]; ok {
		return m
	}
	return t.buildMemo(sw)
}

// buildMemo is memo's miss, apart so that a lookup keeps a small frame.
// memoMu is held. A switch no indexed path visits costs no allocation: it is
// asked again on every query, since its zero memo is not cached.
func (t *table) buildMemo(sw netsim.NodeID) memo {
	var visits []bool // by slot.path
	for i, p := range t.paths {
		if slices.Contains(p, sw) {
			if visits == nil {
				visits = make([]bool, len(t.paths)+1)
			}
			visits[i+1] = true
		}
	}
	if visits == nil {
		return memo{}
	}
	type member struct {
		flow netsim.FlowKey
		slot int32
	}
	var members []member
	for i, s := range t.slots {
		if s.path > 0 && visits[s.path] {
			members = append(members, member{t.flowOf(int32(i)), int32(i)})
		}
	}
	slices.SortFunc(members, func(a, b member) int { return flowrec.Compare(a.flow, b.flow) })
	m := memo{slots: make([]int32, len(members)), at: make([]simtime.EpochRange, len(members))}
	var sc scratch
	defer sc.release()
	for j, e := range members {
		m.slots[j] = e.slot
		m.at[j] = epochsAt(t.record(e.slot, &sc), sw)
	}
	if t.memos == nil {
		t.memos = make(map[netsim.NodeID]memo)
	}
	t.memos[sw] = m
	return m
}

// BySwitch returns fresh copies of every record with an epoch range at sw
// (Record.Traverses), in flow-key order: QueryWindow over EveryEpoch,
// cloned, uncached. No production path calls it; it stays for tests and for
// the benchmark's per-layer rungs until those read QueryWindow.
func (st *RecordStore) BySwitch(sw netsim.NodeID) []*flowrec.Record {
	var recs []*flowrec.Record
	st.QueryWindow(sw, EveryEpoch, func(r *flowrec.Record) { recs = append(recs, r.Clone()) })
	flowrec.SortRecords(recs)
	return recs
}

// QueryBySwitch calls fn for every record of BySwitch(sw), in its order,
// holding each record's shard read-locked during its callback; returning
// false stops the iteration. Like BySwitch it is kept only for tests and the
// benchmark's rungs. fn must not call back into the store.
func (st *RecordStore) QueryBySwitch(sw netsim.NodeID, fn func(*flowrec.Record) bool) {
	for _, r := range st.BySwitch(sw) {
		sh := st.shardOf(&r.Flow)
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
// sequentially and touches only the records it hands to fn, which are valid
// only during the call (see RecordStore). Safe concurrently with absorption;
// fn runs under the shard read lock and must not call back into the store.
// Records arrive shard by shard, flow-key-sorted within one: a caller that
// wants the global order sorts its (answer-sized) result.
func (st *RecordStore) QueryWindow(sw netsim.NodeID, window simtime.EpochRange, fn func(*flowrec.Record)) {
	var sc scratch
	defer sc.release()
	st.window(sw, window, func(t *table, i int32) { fn(t.record(i, &sc)) })
}

// QueryWindowEncoded is QueryWindow handing fn each record's encoding (as
// flowrec.AppendRecord writes it) instead of the record: an encoded record's
// stored bytes, or a live record encoded onto buf under its shard read lock.
// Either stays valid and unchanged after the call — the store never
// overwrites stored bytes, and buf is only appended to — so an answer can
// collect encodings across shards and splice them once. It returns buf.
func (st *RecordStore) QueryWindowEncoded(sw netsim.NodeID, window simtime.EpochRange, buf []byte, fn func(enc []byte)) []byte {
	st.window(sw, window, func(t *table, i int32) {
		var enc []byte
		enc, buf = t.encoding(i, buf)
		fn(enc)
	})
	return buf
}

// window is the scan behind QueryWindow and QueryWindowEncoded: visit runs
// under the shard read lock for every slot of sw's memos whose range overlaps
// window.
func (st *RecordStore) window(sw netsim.NodeID, window simtime.EpochRange, visit func(t *table, i int32)) {
	for i := range st.shards {
		sh := &st.shards[i]
		t := sh.tab.Load()
		if t == nil {
			continue
		}
		sh.mu.RLock()
		m := t.memo(sw)
		for j, at := range m.at {
			if at.Overlaps(window) {
				visit(t, m.slots[j])
			}
		}
		sh.mu.RUnlock()
	}
}

// EveryEpoch is the epoch window that addresses all records.
var EveryEpoch = simtime.EpochRange{Lo: simtime.Epoch(-1 << 62), Hi: simtime.Epoch(1 << 62)}

// SnapshotShards calls fn once per shard holding records, in shard order,
// with one segment of them in flow-key order,
// spliced from their encodings: encoded records' stored bytes and live
// records encoded, taken under only that shard's read lock (stored bytes
// stay valid after it). fn runs with no locks held at all — so a caller
// streaming a large store over the network (the state-sync snapshot path)
// never stalls packet absorption: at most one shard is briefly read-locked
// while the other fifteen keep absorbing and answering queries. The segment
// is valid only during the call. Shard hashing is fixed, so the sequence of
// segments is deterministic. fn returning an error aborts the walk.
func (st *RecordStore) SnapshotShards(fn func(seg []byte) error) error {
	var encs [][]byte
	var buf, seg []byte
	for i := range st.shards {
		sh := &st.shards[i]
		t := sh.tab.Load()
		if t == nil {
			continue
		}
		encs, buf = encs[:0], buf[:0]
		sh.mu.RLock()
		for j, s := range t.slots {
			if s.path == freeSlot {
				continue
			}
			var enc []byte
			enc, buf = t.encoding(int32(j), buf)
			encs = append(encs, enc)
		}
		sh.mu.RUnlock()
		if len(encs) == 0 {
			continue
		}
		flowrec.SortEncoded(encs)
		var err error
		if seg, err = flowrec.SpliceSegment(seg[:0], encs); err != nil {
			panic(corrupt(err))
		}
		if err := fn(seg); err != nil {
			return err
		}
	}
	return nil
}
