package hostagent_test

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
	"switchpointer/internal/topo"
)

// modelSwitchRecords is what a by-switch query reads: the switch's hot
// records in flow-key order (BySwitch), plus — with a cold reader — for
// every flow not answered hot the last cold version that traversed sw,
// merged back into flow-key order.
func modelSwitchRecords(t *testing.T, st *store.RecordStore, rd store.ColdReader, sw netsim.NodeID) []*flowrec.Record {
	recs := st.BySwitch(sw)
	if rd == nil {
		return recs
	}
	hot := map[netsim.FlowKey]bool{}
	for _, r := range recs {
		hot[r.Flow] = true
	}
	cold := map[netsim.FlowKey]*flowrec.Record{}
	forEachCold(t, rd, func(r *flowrec.Record) {
		if r.Traverses(sw) && !hot[r.Flow] {
			cold[r.Flow] = r
		}
	})
	for _, r := range cold {
		recs = append(recs, r)
	}
	flowrec.SortRecords(recs)
	return recs
}

// forEachCold calls fn for every record of every segment rd holds, in log
// order.
func forEachCold(t *testing.T, rd store.ColdReader, fn func(*flowrec.Record)) {
	t.Helper()
	view := rd.View()
	defer view.Close()
	for i := 0; i < view.Len(); i++ {
		if _, err := view.ReadSegment(i, nil, func(_ *flowrec.Record, enc []byte) { fn(decodeRecord(t, enc)) }); err != nil {
			t.Fatal(err)
		}
	}
}

// decodeRecord decodes one record encoding into a record the caller owns.
func decodeRecord(t testing.TB, enc []byte) *flowrec.Record {
	t.Helper()
	r, err := flowrec.DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// modelTopK is QueryTopK as it was when the store kept a merged per-switch
// copy: the switch's records in flow-key order, then sort.Slice by bytes
// descending with the flow-key string tie-break, then the first k.
func modelTopK(recs []*flowrec.Record, k int) []hostagent.FlowBytes {
	out := []hostagent.FlowBytes{}
	for _, r := range recs {
		out = append(out, hostagent.FlowBytes{Flow: r.Flow, Bytes: r.Bytes})
	}
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

// modelFlowSizes is QueryFlowSizes as it was: flow-key order, unsorted after.
func modelFlowSizes(recs []*flowrec.Record) []hostagent.FlowSize {
	out := []hostagent.FlowSize{}
	for _, r := range recs {
		out = append(out, hostagent.FlowSize{Flow: r.Flow, Bytes: r.Bytes, Link: r.TagLink})
	}
	return out
}

// TestTopKAndFlowSizesMatchModel: random stores — byte ties, flows rerouted
// by hand between Acquire and Release, wholesale Put replacements, evictions,
// one record whose Epochs is shorter than its Path — queried at every switch
// with k ∈ {0, 1, n−1, n, n+5}. Both answers must equal the model's, element
// for element, and an empty answer must stay a non-nil slice (it is [] on
// the wire, not null). On even seeds the evictions land in a segment log the
// agent reads back: the answers are then hot ∪ the last cold version, hot
// winning, and LookupRecord and QueryPriority answer an evicted flow from
// its last cold version.
func TestTopKAndFlowSizesMatchModel(t *testing.T) {
	paths := [][]netsim.NodeID{{1, 2, 3}, {1, 4, 3}, {5, 2, 3}, {5, 6}, {2}}
	const switches = 7 // 7 is on no path
	ctx := context.Background()
	twice := 0 // flows evicted more than once: the last version must win
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flows := make([]netsim.FlowKey, 48)
		for i := range flows {
			// Sources from 1.x to 200.x: string order and numeric order differ.
			flows[i] = netsim.FlowKey{Src: netsim.IPv4(uint32(1+rng.Intn(200))<<24 | uint32(i)), Dst: 99,
				SrcPort: uint16(rng.Intn(3)), DstPort: 80, Proto: netsim.ProtoUDP}
		}
		fill := func(r *flowrec.Record, now simtime.Time) {
			r.Path = slices.Clone(paths[rng.Intn(len(paths))])
			r.Epochs = r.Epochs[:0]
			for range r.Path {
				r.Epochs = append(r.Epochs, simtime.EpochRange{Lo: 1, Hi: 2})
			}
			r.Bytes = uint64(100 * (1 + rng.Intn(3))) // three values: many ties
			r.TagLink = topo.LinkID(rng.Intn(4))
			r.Priority = uint8(rng.Intn(4))
			r.Pkts++
			r.LastSeen = now
		}
		st := store.New()
		ag := &hostagent.Agent{Store: st}
		var rd store.ColdReader
		if seed%2 == 0 {
			log, err := statesync.NewSegmentLog("")
			if err != nil {
				t.Fatal(err)
			}
			st.SetRetention(store.Retention{MaxRecords: 16, Cold: log})
			ag.SetColdReader(log)
			rd = log
		} else {
			st.SetRetention(store.Retention{MaxRecords: 16})
		}
		for step := 0; step < 120; step++ {
			now := simtime.Time(step)
			f := flows[rng.Intn(len(flows))]
			switch rng.Intn(6) {
			case 0, 1, 2: // new or rerouted by hand
				r := st.Acquire(f)
				fill(r, now)
				st.Release(r)
			case 3, 4: // wholesale replacement
				r := flowrec.New(f)
				fill(r, now)
				st.Put(r)
			case 5:
				if _, err := st.Maintain(now); err != nil {
					t.Fatal(err)
				}
			}
		}
		short := flowrec.New(netsim.FlowKey{Src: 7, Dst: 98, Proto: netsim.ProtoUDP})
		short.Path = []netsim.NodeID{1, 2, 3}
		short.Epochs = []simtime.EpochRange{{Lo: 1, Hi: 2}} // off the wire: covers 1 only
		short.Bytes, short.LastSeen = 200, 120
		st.Put(short)
		for sw := netsim.NodeID(1); sw <= switches; sw++ {
			recs := modelSwitchRecords(t, st, rd, sw)
			sizes := ag.QueryFlowSizes(ctx, sw)
			if want := modelFlowSizes(recs); sizes == nil || !slices.Equal(sizes, want) {
				t.Fatalf("seed %d: QueryFlowSizes(%d) = %v, want %v", seed, sw, sizes, want)
			}
			n := len(sizes)
			for _, k := range []int{0, 1, n - 1, n, n + 5} {
				got := ag.QueryTopK(ctx, sw, k)
				if want := modelTopK(recs, k); got == nil || !slices.Equal(got, want) {
					t.Fatalf("seed %d: QueryTopK(%d, k=%d) = %v, want %v", seed, sw, k, got, want)
				}
			}
		}
		if rd == nil {
			continue
		}
		last := map[netsim.FlowKey]*flowrec.Record{}
		forEachCold(t, rd, func(r *flowrec.Record) {
			if last[r.Flow] != nil {
				twice++
			}
			last[r.Flow] = r
		})
		evicted := 0
		for _, f := range flows {
			want, ok := last[f]
			if st.View(f, func(r *flowrec.Record) { want = r.Clone() }) {
				ok = true
			} else if ok {
				evicted++
			}
			rec, found := ag.LookupRecord(ctx, f)
			if found != ok || !reflect.DeepEqual(rec, want) {
				t.Fatalf("seed %d: LookupRecord(%v) = %v, %v; want %v, %v", seed, f, rec, found, want, ok)
			}
			prio, known := ag.QueryPriority(ctx, f)
			if known != ok || (ok && prio != want.Priority) {
				t.Fatalf("seed %d: QueryPriority(%v) = %d, %v; want the record's", seed, f, prio, known)
			}
		}
		if evicted == 0 {
			t.Fatalf("seed %d: no flow answered from the cold tier alone", seed)
		}
	}
	if twice == 0 {
		t.Fatal("no flow was evicted twice")
	}
}

// TestTopKFollowsTraverses: a record installed off the wire whose Epochs is
// shorter than its Path answers only at the switches its epochs cover — the
// Record.Traverses membership every by-switch read follows.
func TestTopKFollowsTraverses(t *testing.T) {
	st := store.New()
	r := flowrec.New(netsim.FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: netsim.ProtoUDP})
	r.Path = []netsim.NodeID{10, 11}
	r.Epochs = []simtime.EpochRange{{Lo: 1, Hi: 2}} // covers 10 only
	r.Bytes = 500
	st.Put(r)
	ag := &hostagent.Agent{Store: st}
	ctx := context.Background()
	if got := ag.QueryTopK(ctx, 10, 5); len(got) != 1 || got[0].Bytes != 500 {
		t.Fatalf("covered switch: QueryTopK = %v, want the record", got)
	}
	if got := ag.QueryFlowSizes(ctx, 10); len(got) != 1 {
		t.Fatalf("covered switch: QueryFlowSizes = %v, want the record", got)
	}
	if got := ag.QueryTopK(ctx, 11, 5); got == nil || len(got) != 0 {
		t.Fatalf("uncovered switch: QueryTopK = %#v, want empty", got)
	}
	if got := ag.QueryFlowSizes(ctx, 11); got == nil || len(got) != 0 {
		t.Fatalf("uncovered switch: QueryFlowSizes = %#v, want empty", got)
	}
}
