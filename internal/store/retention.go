package store

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// Retention bounds a store's resident record set so long-running hosts keep
// only the hot window in memory — the "flush to local storage" policy made
// continuous. Two triggers compose:
//
//   - Age: a record idle for more than HotEpochs epochs (HotEpochs × Alpha
//     of virtual time since its LastSeen) is cold and gets evicted.
//   - Size: when the store still exceeds MaxRecords, the coldest surplus
//     (oldest LastSeen first) is evicted regardless of age.
//
// Evicted records leave as flowrec segments written to Cold (nil Cold drops
// them). Zero triggers disable the respective bound; the zero Retention
// disables eviction entirely.
type Retention struct {
	// HotEpochs is the age bound in epochs (0 = no age-based eviction).
	HotEpochs int
	// Alpha is the epoch size the age math uses; required for HotEpochs.
	Alpha simtime.Time
	// MaxRecords caps the resident set (0 = unbounded).
	MaxRecords int
	// Cold receives evicted records: one flowrec segment per sweep that
	// evicted anything, together with its
	// SegmentManifest — the indexed flush path that makes cold read-back
	// possible (statesync.SegmentLog is the standard implementation). Nil
	// drops evictions.
	Cold ColdStore
}

// ColdStore is the write half of the indexed eviction path: it persists one
// encoded segment together with its manifest (see SegmentManifest in
// manifest.go). WriteSegment owns payload after the call returns.
type ColdStore interface {
	WriteSegment(m SegmentManifest, payload []byte) error
}

// ColdReader is the read-back seam over flushed segments: host agents
// consult it when a query's epoch window reaches past the hot window. View
// returns a stable point-in-time view of the log — safe to walk while
// eviction sweeps append, a compactor rewrites, or tiering retires
// segments underneath it. Implementations must make View allocation-free
// at steady state (the per-round index walk is a hot path).
type ColdReader interface {
	View() ColdView
}

// ColdView is one consistent snapshot of a cold store's segments. Indexes
// are positions within THIS view (they survive concurrent rewrites of the
// underlying log). Manifest returns a read-only pointer. ReadSegment
// validates segment i, then calls fn, in order, for each record keep admits
// (nil: all; see package flowrec) with the record — a scratch holding every
// field but EpochBytes — and its encoding, both valid only during the call
// (flowrec.ScanSegment). It returns the segment's full record count,
// admitted or not; on an error, wrapping ErrTiered when the payload was
// tiered out, fn is never called. Close releases the view — the view and any
// manifest pointers obtained from it must not be used afterwards.
type ColdView interface {
	Len() int
	Manifest(i int) *SegmentManifest
	ReadSegment(i int, keep func(*flowrec.Record) bool, fn func(rec *flowrec.Record, enc []byte)) (records int, err error)
	Close()
}

// retention is the store-side policy state; maintMu serializes Maintain
// sweeps against each other (shard access inside the sweep uses the normal
// shard locks, so sweeps run concurrently with queries and absorption).
type retention struct {
	maintMu sync.Mutex
	cfg     Retention
	evicted uint64
}

// SetRetention installs (or, with a zero Retention, removes) the eviction
// policy. Call before concurrent use or between Maintain sweeps.
func (st *RecordStore) SetRetention(r Retention) {
	st.ret.maintMu.Lock()
	defer st.ret.maintMu.Unlock()
	st.ret.cfg = r
}

// Evicted returns the number of records evicted by Maintain so far.
func (st *RecordStore) Evicted() uint64 {
	st.ret.maintMu.Lock()
	defer st.ret.maintMu.Unlock()
	return st.ret.evicted
}

// Maintain runs one eviction sweep at virtual time now, applying the
// installed Retention: cold records (age bound) leave first, then the
// coldest surplus beyond MaxRecords. With a Cold store the victims are first
// written as one segment, in deterministic (LastSeen, flow-key) order of
// their stored bytes, and only a written record leaves memory: a failed
// write evicts nothing, and the next sweep tries again. It returns how many
// records were evicted this sweep.
//
// Maintain is safe to run concurrently with queries and packet absorption —
// removal holds the affected shard's write lock and invalidates the
// memoized per-switch answers, exactly like a path-change reindex. A record
// whose recency moved since the sweep read it (it absorbed traffic, or a
// fresher version replaced it) is no longer cold and stays; a copy of it in
// the segment is harmless, since a resident record wins over a cold one.
// Sweeps themselves are serialized against each other.
func (st *RecordStore) Maintain(now simtime.Time) (int, error) {
	st.ret.maintMu.Lock()
	defer st.ret.maintMu.Unlock()
	cfg := st.ret.cfg
	victims := st.victims(cfg, now)
	if len(victims) > 0 && cfg.Cold != nil {
		var err error
		if victims, err = st.flush(cfg.Cold, victims); err != nil {
			return 0, err
		}
	}
	n := 0
	for _, v := range victims {
		if st.evict(v) {
			n++
		}
	}
	st.ret.evicted += uint64(n)
	return n, nil
}

// victim names a record a sweep chose by the recency it read: LastSeen, then
// Pkts, Put's guard. A record whose recency moved since is not the one
// chosen.
type victim struct {
	flow netsim.FlowKey
	last simtime.Time
	pkts uint64
}

func (v victim) is(r *flowrec.Record) bool { return r.LastSeen == v.last && r.Pkts == v.pkts }

// victims reads every resident record's recency and returns, coldest first
// in (LastSeen, flow-key) order, those cfg evicts at now: everything idle
// past the hot window, and at least the surplus beyond MaxRecords.
func (st *RecordStore) victims(cfg Retention, now simtime.Time) []victim {
	age := cfg.HotEpochs > 0 && cfg.Alpha > 0
	if !age && cfg.MaxRecords <= 0 {
		return nil
	}
	var all []victim
	var sc scratch
	defer sc.release()
	for i := range st.shards {
		sh := &st.shards[i]
		t := sh.tab.Load()
		if t == nil {
			continue
		}
		sh.mu.RLock()
		for j, s := range t.slots {
			if s.path != freeSlot {
				r := t.record(int32(j), &sc)
				all = append(all, victim{r.Flow, r.LastSeen, r.Pkts})
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(all, func(a, b victim) int {
		if c := cmp.Compare(a.last, b.last); c != 0 {
			return c
		}
		return flowrec.Compare(a.flow, b.flow)
	})
	n := 0
	if age {
		cutoff := now - simtime.Time(cfg.HotEpochs)*cfg.Alpha
		n, _ = slices.BinarySearchFunc(all, cutoff, func(v victim, c simtime.Time) int { return cmp.Compare(v.last, c) })
	}
	if cfg.MaxRecords > 0 {
		n = max(n, len(all)-cfg.MaxRecords)
	}
	return all[:n]
}

// flush writes the victims whose records still hold the recency they were
// chosen by to cold, as one segment of their stored (or, for a live record,
// freshly encoded) bytes with its manifest, and returns those victims.
func (st *RecordStore) flush(cold ColdStore, victims []victim) ([]victim, error) {
	var idx manifestIndex
	var encs [][]byte
	var buf []byte
	var sc scratch
	defer sc.release()
	kept := victims[:0]
	for _, v := range victims {
		sh := st.shardOf(v.flow)
		t := sh.tab.Load()
		sh.mu.RLock()
		if j := t.find(v.flow); j >= 0 {
			if r := t.record(j, &sc); v.is(r) {
				idx.add(r)
				var enc []byte
				enc, buf = t.encoding(j, buf)
				encs = append(encs, enc)
				kept = append(kept, v)
			}
		}
		sh.mu.RUnlock()
	}
	if len(kept) == 0 {
		return nil, nil
	}
	seg, err := flowrec.SpliceSegment(nil, encs)
	if err != nil {
		panic(corrupt(err))
	}
	m := idx.manifest()
	m.Bytes = len(seg)
	if err := cold.WriteSegment(m, seg); err != nil {
		return nil, fmt.Errorf("store: eviction segment: %w", err)
	}
	return kept, nil
}

// evict removes v's record — its slot, its stored bytes and the memoized
// answer of every switch on its indexed path — unless the record's recency
// moved since v was read, and reports whether it did.
func (st *RecordStore) evict(v victim) bool {
	sh := st.shardOf(v.flow)
	t := sh.tab.Load()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i := t.find(v.flow)
	if i < 0 {
		return false
	}
	var sc scratch
	defer sc.release()
	if !v.is(t.record(i, &sc)) {
		return false
	}
	for _, sw := range t.pathOf(t.slots[i]) {
		st.invalidate(t, sw)
	}
	t.remove(i, v.flow)
	return true
}
