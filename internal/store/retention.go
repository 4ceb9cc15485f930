package store

import (
	"bytes"
	"fmt"
	"io"
	"sort"
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
// Evicted records leave through the store's Flush path: they are appended
// to Sink as a stream of Flush-compatible segments (nil Sink drops them).
// Zero triggers disable the respective bound; the zero
// Retention disables eviction entirely.
type Retention struct {
	// HotEpochs is the age bound in epochs (0 = no age-based eviction).
	HotEpochs int
	// Alpha is the epoch size the age math uses; required for HotEpochs.
	Alpha simtime.Time
	// MaxRecords caps the resident set (0 = unbounded).
	MaxRecords int
	// Sink receives evicted records as segments (one per Maintain call that
	// evicted anything, in the form Flush writes and Load reads; successive
	// Loads walk the stream). Nil drops evictions.
	Sink io.Writer
	// Cold, when set, receives the same segments together with a
	// SegmentManifest each — the indexed flush path that makes cold
	// read-back possible (statesync.SegmentLog is the standard
	// implementation). Sink and Cold may be set independently; evictions go
	// to both.
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
// underlying log). Manifest returns a read-only pointer; ReadSegment
// decodes segment i and calls fn for each of its records (the records are
// owned by the caller), returning an error wrapping ErrTiered when the
// segment's payload was tiered out. Close releases the view — the view and
// any manifest pointers obtained from it must not be used afterwards.
type ColdView interface {
	Len() int
	Manifest(i int) *SegmentManifest
	ReadSegment(i int, fn func(*flowrec.Record)) error
	Close()
}

// retention is the store-side policy state; maintMu serializes Maintain
// sweeps and sink encoding against each other (shard access inside the
// sweep uses the normal shard locks, so sweeps run concurrently with
// queries and absorption).
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
// coldest surplus beyond MaxRecords. Evicted records are flushed to the
// sink in deterministic (LastSeen, flow-key) order. It returns how many
// records were evicted this sweep.
//
// Maintain is safe to run concurrently with queries and packet absorption —
// removal holds the affected shard's write lock and invalidates the
// memoized per-switch answers, exactly like a path-change reindex. Sweeps
// themselves are serialized against each other.
func (st *RecordStore) Maintain(now simtime.Time) (int, error) {
	st.ret.maintMu.Lock()
	defer st.ret.maintMu.Unlock()
	cfg := st.ret.cfg

	var victims []*flowrec.Record

	// Age pass: evict everything idle past the hot window.
	if cfg.HotEpochs > 0 && cfg.Alpha > 0 {
		cutoff := now - simtime.Time(cfg.HotEpochs)*cfg.Alpha
		for i := range st.shards {
			sh := &st.shards[i]
			sh.mu.Lock()
			var cold []*flowrec.Record
			for _, s := range sh.recs {
				if s.rec.LastSeen < cutoff {
					cold = append(cold, s.rec)
				}
			}
			// Remove after collection so the map is not mutated mid-range.
			for _, r := range cold {
				st.removeLocked(sh, r)
			}
			sh.mu.Unlock()
			victims = append(victims, cold...)
		}
	}

	// Size pass: evict the coldest surplus beyond the cap.
	if cfg.MaxRecords > 0 {
		if surplus := st.Len() - cfg.MaxRecords; surplus > 0 {
			type coldKey struct {
				flow netsim.FlowKey
				last simtime.Time
			}
			var all []coldKey
			for i := range st.shards {
				sh := &st.shards[i]
				sh.mu.RLock()
				for k, s := range sh.recs {
					all = append(all, coldKey{flow: k, last: s.rec.LastSeen})
				}
				sh.mu.RUnlock()
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].last != all[j].last {
					return all[i].last < all[j].last
				}
				return flowLess(all[i].flow, all[j].flow)
			})
			if surplus > len(all) {
				surplus = len(all)
			}
			for _, c := range all[:surplus] {
				sh := st.shardOf(c.flow)
				sh.mu.Lock()
				// Re-check LastSeen under the write lock: a record that
				// absorbed traffic since the snapshot is no longer the
				// coldest and must survive this sweep.
				if s, live := sh.recs[c.flow]; live && s.rec.LastSeen == c.last {
					st.removeLocked(sh, s.rec)
					victims = append(victims, s.rec)
				}
				sh.mu.Unlock()
			}
		}
	}

	if len(victims) == 0 {
		return 0, nil
	}
	st.ret.evicted += uint64(len(victims))

	if cfg.Sink == nil && cfg.Cold == nil {
		return len(victims), nil
	}
	// Flush in deterministic cold-first order. The victims are no longer
	// reachable from the store, so encoding the live pointers is race-free.
	// Each sweep writes one self-delimiting segment — the same bytes to
	// either sink — so any segment decodes independently with Load.
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].LastSeen != victims[j].LastSeen {
			return victims[i].LastSeen < victims[j].LastSeen
		}
		return flowLess(victims[i].Flow, victims[j].Flow)
	})
	var buf bytes.Buffer
	if err := EncodeSegment(&buf, victims); err != nil {
		return len(victims), err
	}
	if cfg.Sink != nil {
		if _, err := cfg.Sink.Write(buf.Bytes()); err != nil {
			return len(victims), fmt.Errorf("store: eviction flush: %w", err)
		}
	}
	if cfg.Cold != nil {
		m := NewSegmentManifest(victims)
		m.Bytes = buf.Len()
		if err := cfg.Cold.WriteSegment(m, buf.Bytes()); err != nil {
			return len(victims), fmt.Errorf("store: eviction segment: %w", err)
		}
	}
	return len(victims), nil
}

// removeLocked evicts one record from its (write-locked) shard: the record
// map and the memoized answer of every switch on its indexed path.
func (st *RecordStore) removeLocked(sh *shard, r *flowrec.Record) {
	for _, sw := range sh.pathOf(sh.recs[r.Flow]) {
		st.invalidate(sh, sw)
	}
	delete(sh.recs, r.Flow)
}
