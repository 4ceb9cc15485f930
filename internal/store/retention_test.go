package store

import (
	"bytes"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// seedRecord inserts a record for flow with the given path and LastSeen,
// via the Acquire/Release mutation path so it is safe concurrently with
// Maintain sweeps and queries.
func seedRecord(st *RecordStore, port uint16, last simtime.Time, path ...netsim.NodeID) netsim.FlowKey {
	flow := netsim.FlowKey{Src: netsim.IP(10, 0, 0, 1), Dst: netsim.IP(10, 0, byte(port>>8), byte(port)),
		SrcPort: port, DstPort: 80, Proto: 17}
	r := st.Acquire(flow)
	r.Path = append(r.Path[:0], path...)
	r.Epochs = make([]simtime.EpochRange, len(path))
	r.LastSeen = last
	r.Bytes = uint64(port)
	st.Release(r)
	return flow
}

// TestRetentionAgeEviction pins the age bound: records idle past the hot
// window leave memory through the cold store, recent ones stay, and evicted
// flows stop answering by-switch queries.
func TestRetentionAgeEviction(t *testing.T) {
	st := New()
	cold := &sinkLog{}
	st.SetRetention(Retention{HotEpochs: 10, Alpha: simtime.Millisecond, Cold: cold})

	const sw = netsim.NodeID(3)
	old1 := seedRecord(st, 1, 5*simtime.Millisecond, sw)
	old2 := seedRecord(st, 2, 20*simtime.Millisecond, sw)
	hot := seedRecord(st, 3, 95*simtime.Millisecond, sw)

	evicted, err := st.Maintain(100 * simtime.Millisecond) // cutoff = 90 ms
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 2 || st.Evicted() != 2 {
		t.Fatalf("evicted %d (counter %d), want 2", evicted, st.Evicted())
	}
	if _, ok := st.Lookup(old1); ok {
		t.Fatal("cold record 1 still resident")
	}
	if _, ok := st.Lookup(old2); ok {
		t.Fatal("cold record 2 still resident")
	}
	if _, ok := st.Lookup(hot); !ok {
		t.Fatal("hot record evicted")
	}
	if got := len(st.BySwitch(sw)); got != 1 {
		t.Fatalf("BySwitch after eviction: %d records, want 1", got)
	}

	// The cold store holds one segment of the evicted records, oldest first.
	if len(cold.payloads) != 1 {
		t.Fatalf("cold store received %d segments, want 1", len(cold.payloads))
	}
	archived, err := DecodeSegment(bytes.NewReader(cold.payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(archived) != 2 {
		t.Fatalf("archive holds %d records, want 2", len(archived))
	}
	if archived[0].Flow != old1 {
		t.Fatal("archive missing cold record 1")
	}
}

// TestRetentionSizeBound pins the size bound: beyond MaxRecords the coldest
// surplus leaves, regardless of age.
func TestRetentionSizeBound(t *testing.T) {
	st := New()
	st.SetRetention(Retention{MaxRecords: 4})
	var flows []netsim.FlowKey
	for i := 0; i < 10; i++ {
		flows = append(flows, seedRecord(st, uint16(i+1), simtime.Time(i)*simtime.Millisecond, 1))
	}
	evicted, err := st.Maintain(10 * simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 6 || st.Len() != 4 {
		t.Fatalf("evicted %d, len %d; want 6 evicted, 4 resident", evicted, st.Len())
	}
	for i, f := range flows {
		_, resident := st.Lookup(f)
		wantResident := i >= 6 // the 4 newest stay
		if resident != wantResident {
			t.Fatalf("flow %d resident=%v, want %v", i, resident, wantResident)
		}
	}
}

// TestRetentionDisabled pins the zero-value contract: no policy, no
// eviction.
func TestRetentionDisabled(t *testing.T) {
	st := New()
	seedRecord(st, 1, 0, 1)
	if n, err := st.Maintain(simtime.Second); err != nil || n != 0 {
		t.Fatalf("zero retention evicted %d (err %v)", n, err)
	}
	if st.Len() != 1 {
		t.Fatal("record vanished without a policy")
	}
}

// TestRetentionFlushAbsorbRace exercises Maintain concurrently with
// absorption and queries (meaningful under -race): the sweep must hold the
// same locks as any other mutator, and the bytes it writes must not change
// under it.
func TestRetentionFlushAbsorbRace(t *testing.T) {
	st := New()
	cold := &sinkLog{}
	st.SetRetention(Retention{MaxRecords: 32, Cold: cold})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			seedRecord(st, uint16(i%64+1), simtime.Time(i)*simtime.Millisecond, netsim.NodeID(i%4))
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := st.Maintain(simtime.Time(i) * 4 * simtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		st.QueryBySwitch(netsim.NodeID(i%4), func(r *flowrec.Record) bool { return true })
	}
	<-done
	if _, err := st.Maintain(simtime.Second); err != nil {
		t.Fatal(err)
	}
	if st.Len() > 32 {
		t.Fatalf("store unbounded under churn: %d records", st.Len())
	}
	for i, seg := range cold.payloads {
		if _, err := DecodeSegment(bytes.NewReader(seg)); err != nil {
			t.Fatalf("eviction segment %d: %v", i, err)
		}
	}
}
