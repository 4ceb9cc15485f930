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
// Evicted records leave as flowrec segments: they are appended to Sink as a
// stream of self-delimiting segments (nil Sink drops them).
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
	// evicted anything, as EncodeSegment writes it; successive DecodeSegment
	// calls walk the stream). Nil drops evictions.
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
			t := sh.tab.Load()
			if t == nil {
				continue
			}
			sh.mu.Lock()
			var cold []int32
			var sc scratch
			for j, s := range t.slots {
				if s.path != freeSlot && t.record(int32(j), &sc).LastSeen < cutoff {
					cold = append(cold, int32(j))
				}
			}
			sc.release()
			// Remove after collection: a removal may compact the arena.
			for _, j := range cold {
				victims = append(victims, st.removeLocked(t, j))
			}
			sh.mu.Unlock()
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
				t := sh.tab.Load()
				if t == nil {
					continue
				}
				var sc scratch
				sh.mu.RLock()
				for j, s := range t.slots {
					if s.path != freeSlot {
						r := t.record(int32(j), &sc)
						all = append(all, coldKey{flow: r.Flow, last: r.LastSeen})
					}
				}
				sh.mu.RUnlock()
				sc.release()
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].last != all[j].last {
					return all[i].last < all[j].last
				}
				return flowrec.Less(all[i].flow, all[j].flow)
			})
			if surplus > len(all) {
				surplus = len(all)
			}
			for _, c := range all[:surplus] {
				sh := st.shardOf(c.flow)
				t := sh.tab.Load()
				sh.mu.Lock()
				// Re-check LastSeen under the write lock: a record that
				// absorbed traffic since the snapshot is no longer the
				// coldest and must survive this sweep.
				if j := t.find(c.flow); j >= 0 {
					var sc scratch
					last := t.record(j, &sc).LastSeen
					sc.release()
					if last == c.last {
						victims = append(victims, st.removeLocked(t, j))
					}
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
	// Write out in deterministic cold-first order. The victims are no longer
	// reachable from the store, so encoding the records is race-free.
	// Each sweep writes one self-delimiting segment — the same bytes to
	// either sink — so any segment decodes independently with DecodeSegment.
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].LastSeen != victims[j].LastSeen {
			return victims[i].LastSeen < victims[j].LastSeen
		}
		return flowrec.Less(victims[i].Flow, victims[j].Flow)
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

// removeLocked evicts the record in slot i of its (write-locked) shard —
// its slot and the memoized answer of every switch on its indexed path —
// and returns it: the live record, or its encoding decoded afresh.
func (st *RecordStore) removeLocked(t *table, i int32) *flowrec.Record {
	s := t.slots[i]
	r := s.rec
	if r == nil {
		r = decodeStored(t.arena.get(s.off))
	}
	for _, sw := range t.pathOf(s) {
		st.invalidate(t, sw)
	}
	t.remove(i, r.Flow)
	return r
}
