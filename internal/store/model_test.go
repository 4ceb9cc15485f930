package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/header"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// The model test's universe: few enough flows that every one is written many
// times, enough to populate every shard; paths that share switches, one that
// visits a switch twice (a loop: the index must count it once).
var (
	modelPaths = [][]netsim.NodeID{
		{1, 2, 3},
		{1, 4, 3},
		{5, 2, 3},
		{5, 6, 7, 3},
		{1, 2, 1, 3},
		{8},
	}
	modelSwitches = []netsim.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9} // 9: on no path
)

const modelFlows = 64

func modelFlow(i int) netsim.FlowKey {
	return netsim.FlowKey{Src: netsim.IPv4(1 + i%7), Dst: 99, SrcPort: uint16(i), DstPort: 2, Proto: netsim.ProtoTCP}
}

// modelScript drives st through steps random writes — every way a record can
// enter, change or leave the store — calling check after each. All of its
// randomness comes from seed, none from check, so a given (seed, steps)
// produces the same invalidation events whatever check does.
func modelScript(t *testing.T, st *RecordStore, seed int64, steps int, check func(step int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st.SetRetention(Retention{HotEpochs: 40, Alpha: 10, MaxRecords: 48})
	epochsFor := func(path []netsim.NodeID, lo simtime.Epoch) []simtime.EpochRange {
		out := make([]simtime.EpochRange, len(path))
		for i := range out {
			out[i] = simtime.EpochRange{Lo: lo + simtime.Epoch(i), Hi: lo + simtime.Epoch(i+rng.Intn(3))}
		}
		return out
	}
	for step := 0; step < steps; step++ {
		now := simtime.Time(step * 10)
		flow := modelFlow(rng.Intn(modelFlows))
		lo := simtime.Epoch(step/4 + rng.Intn(6))
		switch op := rng.Intn(10); op {
		case 0, 1, 2, 3: // the packet path: steady, widened or rerouted, as the dice fall
			rec := st.Acquire(flow)
			path := rec.Path
			if len(path) == 0 || rng.Intn(5) == 0 {
				path = modelPaths[rng.Intn(len(modelPaths))]
			}
			var epochs []simtime.EpochRange
			if rng.Intn(2) == 0 && len(rec.Epochs) == len(path) {
				epochs = slices.Clone(rec.Epochs) // same path, same epochs: steady
			} else {
				epochs = epochsFor(path, lo)
			}
			rec.Absorb(&netsim.Packet{Flow: flow, Size: 100}, header.Decoded{Path: path, Epochs: epochs, TagIdx: 0}, now)
			st.Release(rec)
		case 4: // mutated by hand between Acquire and Release: no Absorb vouches
			rec := st.Acquire(flow)
			if rng.Intn(2) == 0 || len(rec.Path) == 0 {
				rec.Path = slices.Clone(modelPaths[rng.Intn(len(modelPaths))])
			}
			rec.Epochs = epochsFor(rec.Path, lo)
			rec.Pkts++
			rec.LastSeen = now
			st.Release(rec)
		case 5: // the single-writer form
			rec := st.Get(flow)
			if rng.Intn(2) == 0 || len(rec.Path) == 0 {
				rec.Path = slices.Clone(modelPaths[rng.Intn(len(modelPaths))])
			}
			rec.Epochs = epochsFor(rec.Path, lo)
			rec.Pkts++
			rec.LastSeen = now
			st.Reindex(rec)
		case 6, 7: // Put: new, replace on the same path, replace on a new one, stale
			rec := flowrec.New(flow)
			rec.Pkts, rec.Bytes, rec.LastSeen = 1, 100, now
			old, resident := st.Lookup(flow)
			stale := false
			if resident {
				rec = old.Clone()
				rec.LastSeen = now
				if stale = rng.Intn(4) == 0; stale {
					rec.LastSeen = old.LastSeen - 1
				}
			}
			if !resident || rng.Intn(2) == 0 {
				rec.Path = slices.Clone(modelPaths[rng.Intn(len(modelPaths))])
			}
			rec.Epochs = epochsFor(rec.Path, lo)
			if st.Put(rec) == stale {
				t.Fatalf("step %d: Put(stale=%v) = %v", step, stale, !stale)
			}
		case 8: // eviction: by age, then down to MaxRecords
			if _, err := st.Maintain(now); err != nil {
				t.Fatal(err)
			}
		case 9: // a flow that stays pathless (created, never indexed)
			st.Get(flow)
		}
		check(step)
	}
}

// TestStoreMatchesModel is the oracle for the one-index store: after every
// step of a random script, with memos left behind by the previous steps'
// queries, the windowed scan equals the brute-force (EpochsAt + Overlaps)
// filter over All() and BySwitch equals the brute-force membership, both in
// flow-key order.
func TestStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		st := New()
		qrng := rand.New(rand.NewSource(seed + 1000))
		modelScript(t, st, seed, 1500, func(step int) {
			all := st.All()
			for n := 0; n < 3; n++ {
				sw := modelSwitches[qrng.Intn(len(modelSwitches))]
				lo := simtime.Epoch(step/4 + qrng.Intn(12) - 3)
				window := simtime.EpochRange{Lo: lo, Hi: lo + simtime.Epoch(qrng.Intn(3))}

				var wantWindow, wantMembers []*flowrec.Record
				for _, r := range all {
					if at, ok := r.EpochsAt(sw); ok {
						wantMembers = append(wantMembers, r)
						if at.Overlaps(window) {
							wantWindow = append(wantWindow, r)
						}
					}
				}
				var got []*flowrec.Record
				st.QueryWindow(sw, window, func(r *flowrec.Record) { got = append(got, r) })
				sortRecords(got)
				if !slices.Equal(got, wantWindow) {
					t.Fatalf("seed %d step %d: QueryWindow(%d, %v) = %v, want %v", seed, step, sw, window, got, wantWindow)
				}
				if got := st.BySwitch(sw); !slices.Equal(got, wantMembers) {
					t.Fatalf("seed %d step %d: BySwitch(%d) = %v, want %v", seed, step, sw, got, wantMembers)
				}
			}
		})
		if st.Evicted() == 0 {
			t.Fatalf("seed %d: the script never evicted", seed)
		}
	}
}

// TestInvalidationEventsPinned checks "same invalidation events" instead of
// asserting it: Generations() counts every invalidate call, and 6413 is what
// the three-index store (bySwitch sets + indexed path copies, PR 23) counted
// for this script. A reindex that invalidates an unchanged path, misses a
// left or joined switch, or counts a looped switch twice moves it.
func TestInvalidationEventsPinned(t *testing.T) {
	st := New()
	modelScript(t, st, 42, 2000, func(int) {})
	if got := st.Generations(); got != 6413 {
		t.Fatalf("Generations() = %d after the fixed script, want 6413", got)
	}
}

// TestWindowScanDuringWidening is the -race gate for the memo's inline
// ranges: writers widen every record of one switch (rewriting ranges in
// place in live memos) and add flows (dropping the memos) while readers
// window-scan that switch. A record whose range reached the window before a
// scan began must be in it.
func TestWindowScanDuringWidening(t *testing.T) {
	const (
		base    = 48
		rounds  = 150
		readers = 3
		sw      = netsim.NodeID(3)
	)
	st := New()
	path := modelPaths[0]
	absorb := func(flow netsim.FlowKey, hi simtime.Epoch) {
		epochs := make([]simtime.EpochRange, len(path))
		for i := range epochs {
			epochs[i] = simtime.EpochRange{Lo: 0, Hi: hi}
		}
		rec := st.Acquire(flow)
		rec.Absorb(&netsim.Packet{Flow: flow, Size: 100}, header.Decoded{Path: path, Epochs: epochs, TagIdx: 0}, simtime.Time(hi))
		st.Release(rec)
	}
	for i := 0; i < base; i++ {
		absorb(modelFlow(i), 0)
	}

	var reached atomic.Int64 // every base record's range at sw includes [0, reached]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for e := simtime.Epoch(1); e <= rounds; e++ {
			for i := 0; i < base; i++ {
				absorb(modelFlow(i), e)
			}
			reached.Store(int64(e))
			if e%10 == 0 { // a newcomer: every memo of the path is dropped
				absorb(modelFlow(base+int(e)), e)
			}
		}
	}()
	errs := make(chan error, readers)
	for q := 0; q < readers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := simtime.Epoch(reached.Load())
				seen := 0
				st.QueryWindow(sw, simtime.EpochRange{Lo: e, Hi: e}, func(r *flowrec.Record) {
					if at, _ := r.EpochsAt(sw); at.Hi >= e && int(r.Flow.SrcPort) < base {
						seen++
					}
				})
				if seen != base {
					errs <- fmt.Errorf("window [%d,%d]: scan saw %d of %d records widened to it before it began", e, e, seen, base)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
