package hostagent_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
)

// modelQueryHeadersMulti is QueryHeadersMulti as it was before cold
// segments were decoded through a predicate: every segment decoded whole,
// per-query maps of hot flows and recovered records, one sort at the end.
// It is the reference the sorted merge must reproduce exactly.
func modelQueryHeadersMulti(st *store.RecordStore, rd store.ColdReader, qs []hostagent.HeadersQuery) []hostagent.HeadersAnswer {
	wants := func(q hostagent.HeadersQuery, f netsim.FlowKey) bool {
		if len(q.Flows) == 0 {
			return true
		}
		for _, w := range q.Flows {
			if w == f {
				return true
			}
		}
		return false
	}
	out := make([]hostagent.HeadersAnswer, len(qs))
	for qi, q := range qs {
		st.QueryWindow(q.Switch, q.Epochs, func(rec *flowrec.Record) {
			if wants(q, rec.Flow) {
				out[qi].Records = append(out[qi].Records, rec.Clone())
			}
		})
		flowrec.SortRecords(out[qi].Records)
	}
	hot := make([]map[netsim.FlowKey]bool, len(qs))
	recovered := make([]map[netsim.FlowKey]*flowrec.Record, len(qs))
	for qi := range qs {
		hot[qi] = make(map[netsim.FlowKey]bool)
		for _, r := range out[qi].Records {
			hot[qi][r.Flow] = true
		}
		recovered[qi] = make(map[netsim.FlowKey]*flowrec.Record)
	}
	view := rd.View()
	defer view.Close()
	for i := 0; i < view.Len(); i++ {
		m := view.Manifest(i)
		var interested []int
		for qi, q := range qs {
			if !m.Epochs.Overlaps(q.Epochs) {
				continue
			}
			if !m.MayContainSwitch(q.Switch) || (len(q.Flows) > 0 && !m.MayContainAnyFlow(q.Flows)) {
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
		var recs []*flowrec.Record
		if _, err := view.ReadSegment(i, nil, func(_ *flowrec.Record, enc []byte) {
			if rec, err := flowrec.DecodeRecord(enc); err == nil {
				recs = append(recs, rec)
			}
		}); err != nil {
			continue
		}
		for _, qi := range interested {
			q := qs[qi]
			out[qi].ColdSegments++
			out[qi].ColdRecords += len(recs)
			for _, rec := range recs {
				if hot[qi][rec.Flow] || !wants(q, rec.Flow) {
					continue
				}
				if er, ok := rec.EpochsAt(q.Switch); ok && er.Overlaps(q.Epochs) {
					recovered[qi][rec.Flow] = rec
				}
			}
		}
	}
	for qi := range qs {
		if len(recovered[qi]) == 0 {
			continue
		}
		out[qi].ColdReturned = len(recovered[qi])
		for _, rec := range recovered[qi] {
			out[qi].Records = append(out[qi].Records, rec)
		}
		flowrec.SortRecords(out[qi].Records)
	}
	return out
}

// TestQueryHeadersMultiMatchesModel: random hot stores over random segment
// logs — flows evicted twice or more, flows both hot and cold, a flow twice
// in one segment, unindexed and tiered segments — queried with
// random windows, switches and flow restrictions. Every answer, records and
// all five counters, must deep-equal the model's.
func TestQueryHeadersMultiMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flows := make([]netsim.FlowKey, 40)
		for i := range flows {
			flows[i] = netsim.FlowKey{Src: netsim.IPv4(10 + i%7), Dst: 100, SrcPort: uint16(i), DstPort: 80, Proto: netsim.ProtoTCP}
		}
		record := func(f netsim.FlowKey) *flowrec.Record {
			r := flowrec.New(f)
			r.Priority = uint8(rng.Intn(4))
			for _, sw := range rng.Perm(5)[:1+rng.Intn(4)] {
				lo := simtime.Epoch(rng.Intn(60))
				r.Path = append(r.Path, netsim.NodeID(sw+1))
				r.Epochs = append(r.Epochs, simtime.EpochRange{Lo: lo, Hi: lo + simtime.Epoch(rng.Intn(6))})
			}
			r.TagIdx = rng.Intn(len(r.Path))
			r.AddEpochBytes(r.Epochs[r.TagIdx].Lo, uint64(1+rng.Intn(9000)))
			r.Bytes, r.Pkts = uint64(rng.Intn(1<<20)), uint64(1+rng.Intn(100))
			r.LastSeen = simtime.Time(rng.Intn(1000))
			return r
		}

		st := store.New()
		for _, i := range rng.Perm(len(flows))[:rng.Intn(20)] {
			st.Put(record(flows[i]))
		}
		log, err := statesync.NewSegmentLog("")
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 4+rng.Intn(8); s++ {
			var recs []*flowrec.Record
			for _, i := range rng.Perm(len(flows))[:1+rng.Intn(15)] {
				recs = append(recs, record(flows[i]))
			}
			if rng.Intn(8) == 0 { // the same flow twice in one segment
				recs = append(recs, record(recs[0].Flow))
			}
			var payload bytes.Buffer
			if err := store.EncodeSegment(&payload, recs); err != nil {
				t.Fatal(err)
			}
			m := store.NewSegmentManifest(recs)
			m.Bytes = payload.Len()
			switch rng.Intn(6) {
			case 0:
				m = store.SegmentManifest{Epochs: m.Epochs, Flows: m.Flows, Bytes: m.Bytes} // unindexed
			case 1:
				m.Tiered = true
			}
			if err := log.WriteSegment(m, payload.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
		ag := &hostagent.Agent{Store: st}
		ag.SetColdReader(log)

		for round := 0; round < 20; round++ {
			qs := make([]hostagent.HeadersQuery, 1+rng.Intn(4))
			for qi := range qs {
				lo := simtime.Epoch(rng.Intn(70) - 5)
				qs[qi] = hostagent.HeadersQuery{
					Switch: netsim.NodeID(1 + rng.Intn(6)), // 6 is on no path
					Epochs: simtime.EpochRange{Lo: lo, Hi: lo + simtime.Epoch(rng.Intn(20))},
				}
				if rng.Intn(3) == 0 {
					for _, i := range rng.Perm(len(flows))[:1+rng.Intn(3)] {
						qs[qi].Flows = append(qs[qi].Flows, flows[i])
					}
					if rng.Intn(2) == 0 {
						qs[qi].Flows = append(qs[qi].Flows, netsim.FlowKey{Src: 99, Dst: 99})
					}
				}
			}
			got := ag.QueryHeadersMulti(context.Background(), qs)
			want := modelQueryHeadersMulti(st, log, qs)
			if !reflect.DeepEqual(got, want) {
				for qi := range qs {
					if !reflect.DeepEqual(got[qi], want[qi]) {
						t.Fatalf("seed %d round %d query %+v:\n got %s\nwant %s", seed, round, qs[qi], summary(got[qi]), summary(want[qi]))
					}
				}
			}
		}
	}
}

func summary(a hostagent.HeadersAnswer) string {
	s := fmt.Sprintf("segments %d records %d returned %d skipped %d tiered %d; nil=%v",
		a.ColdSegments, a.ColdRecords, a.ColdReturned, a.ColdSkippedByIndex, a.TieredSegments, a.Records == nil)
	for _, r := range a.Records {
		s += fmt.Sprintf("\n  %v", r)
	}
	return s
}
