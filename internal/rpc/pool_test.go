package rpc_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
)

// poolRecord is flow src through switches 1 → 2 → 3, seen at epochs lo..lo+2.
func poolRecord(src netsim.IPv4, lo simtime.Epoch) *flowrec.Record {
	r := flowrec.New(netsim.FlowKey{Src: src, Dst: 0x0a000063, SrcPort: uint16(src), DstPort: 80, Proto: netsim.ProtoTCP})
	r.Path = []netsim.NodeID{1, 2, 3}
	for range r.Path {
		r.Epochs = append(r.Epochs, simtime.EpochRange{Lo: lo, Hi: lo + 2})
	}
	r.TagIdx, r.TagLink = 1, 7
	r.Bytes, r.Pkts = 1500*uint64(src), uint64(src)
	r.AddEpochBytes(lo, r.Bytes)
	r.FirstSeen, r.LastSeen = simtime.Time(lo)*simtime.Millisecond, simtime.Time(lo+2)*simtime.Millisecond
	return r
}

// TestConcurrentHeadersBatchAnswers: goroutines ask one host, whose hot
// store and segment log both answer, for /headers-batch answers over
// different windows at once, and each answer equals the host's in-process
// AnswerHeaders answer to its own queries — when it arrives, and again once
// every call has returned. Both ends pool their buffers. The host splices
// every answer onto a pooled buffer and Endpoint gives the buffer back once
// the answer is written: given back any earlier, a concurrent request
// splices over an answer still being written. The client reads every answer
// into a pooled buffer (Call's answerPool): a decoded segment that aliased it
// would be overwritten by a later call's answer, which the last check sees.
func TestConcurrentHeadersBatchAnswers(t *testing.T) {
	const goroutines, rounds = 8, 20
	st := store.New()
	for src := netsim.IPv4(1); src <= 400; src++ {
		st.Put(poolRecord(src, simtime.Epoch(src%64)))
	}
	log, err := statesync.NewSegmentLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for seg := range 4 {
		var recs []*flowrec.Record
		for i := range 100 {
			// Every fifth cold flow is also hot: the hot version answers.
			src := netsim.IPv4(300 + 100*seg + i)
			recs = append(recs, poolRecord(src, simtime.Epoch(int(src)%64)))
		}
		var buf bytes.Buffer
		if err := store.EncodeSegment(&buf, recs); err != nil {
			t.Fatal(err)
		}
		m := store.NewSegmentManifest(recs)
		m.Bytes = buf.Len()
		if err := log.WriteSegment(m, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	ag := &hostagent.Agent{Store: st}
	ag.SetColdReader(log)
	srv := httptest.NewServer(rpc.NewHostHandler(ag, "h", nil))
	defer srv.Close()
	client := rpc.NewPooledHTTPClient()
	defer client.CloseIdleConnections()

	ctx := context.Background()
	queries := make([][]hostagent.HeadersQuery, goroutines)
	wants := make([][]hostagent.HeadersAnswer, goroutines)
	for g := range queries {
		lo := simtime.Epoch(7 * g)
		queries[g] = []hostagent.HeadersQuery{
			{Switch: 2, Epochs: simtime.EpochRange{Lo: lo, Hi: lo + 5 + simtime.Epoch(g)}},
			{Switch: 3, Epochs: simtime.EpochRange{Lo: lo + 3, Hi: lo + 30}},
		}
		want, _, err := ag.AnswerHeaders(ctx, queries[g], nil)
		if err != nil {
			t.Fatal(err)
		}
		if want[0].ColdReturned == 0 || len(want[0].Segment) == len(want[1].Segment) {
			t.Fatalf("goroutine %d's answers no longer cover what this test is about: %+v", g, want)
		}
		wants[g] = want
	}

	kept := make([][][]hostagent.HeadersAnswer, goroutines) // by goroutine, then round
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				got, err := client.QueryHeadersBatch(ctx, srv.URL, queries[g])
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if !reflect.DeepEqual(got, wants[g]) {
					t.Errorf("goroutine %d round %d: the wire answer differs from the in-process one", g, r)
					return
				}
				kept[g] = append(kept[g], got)
			}
		}()
	}
	wg.Wait()
	for g := range kept {
		for r, got := range kept[g] {
			if !reflect.DeepEqual(got, wants[g]) {
				t.Fatalf("goroutine %d round %d: the answer changed after later calls returned", g, r)
			}
		}
	}
}
