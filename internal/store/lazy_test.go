package store

import (
	"bytes"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// built counts the shards whose table exists.
func built(st *RecordStore) (shards int) {
	for i := range st.shards {
		if st.shards[i].tab.Load() != nil {
			shards++
		}
	}
	return shards
}

var newSink *RecordStore

// TestNewIsOneAllocation gates the lazy-shard contract at its cheapest end:
// a testbed builds one store per host and most never hold a record.
func TestNewIsOneAllocation(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { newSink = New() }); allocs > 1 {
		t.Fatalf("New: %v allocs, want <= 1", allocs)
	}
	if shards := built(newSink); shards != 0 {
		t.Fatalf("New built %d shards", shards)
	}
}

// TestFirstWriteBuildsOneShard: a store that absorbed one flow has built
// the one shard that flow hashes to, and answers for it.
func TestFirstWriteBuildsOneShard(t *testing.T) {
	st := New()
	flow := seedRecord(st, 7, 100, 10, 11)
	if shards := built(st); shards != 1 {
		t.Fatalf("one absorbed flow built %d shards, want 1", shards)
	}
	if got := st.BySwitch(11); len(got) != 1 || got[0].Flow != flow {
		t.Fatalf("BySwitch(11) = %+v", got)
	}
	if st.Len() != 1 || len(snapshot(t, st)) != 1 {
		t.Fatalf("Len = %d, snapshot = %d, want 1", st.Len(), len(snapshot(t, st)))
	}
	if shards := built(st); shards != 1 {
		t.Fatalf("reading built %d more shards", shards-1)
	}
}

// TestNeverWrittenStoreAnswersEmpty runs every read-side and maintenance
// API over a store nothing was written to: each answers empty from nil
// maps and none builds a shard.
func TestNeverWrittenStoreAnswersEmpty(t *testing.T) {
	st := New()
	st.SetRetention(Retention{Alpha: 10, HotEpochs: 2, MaxRecords: 4})
	flow := netsim.FlowKey{Src: 1, Dst: 2, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoTCP}

	if st.Len() != 0 || len(snapshot(t, st)) != 0 {
		t.Fatalf("Len = %d, snapshot = %d", st.Len(), len(snapshot(t, st)))
	}
	if got := st.BySwitch(10); got != nil {
		t.Fatalf("BySwitch = %+v", got)
	}
	st.QueryWindow(10, EveryEpoch, func(*flowrec.Record) { t.Fatal("QueryWindow visited a record") })
	if st.View(flow, func(*flowrec.Record) { t.Fatal("View visited a record") }) {
		t.Fatal("View reported a record")
	}
	if _, ok := st.Lookup(flow); ok {
		t.Fatal("Lookup reported a record")
	}
	if err := st.SnapshotShards(func([]byte) error { t.Fatal("SnapshotShards visited a shard"); return nil }); err != nil {
		t.Fatal(err)
	}
	if n, err := st.Maintain(simtime.Time(1000)); n != 0 || err != nil {
		t.Fatalf("Maintain = %d, %v", n, err)
	}
	if st.Generations() != 0 {
		t.Fatalf("Generations = %d", st.Generations())
	}
	if shards := built(st); shards != 0 {
		t.Fatalf("reading a never-written store built %d shards", shards)
	}
}

// TestPutAndLoadIntoFreshStore covers the writer that does not go through
// Acquire: Put installs into an unbuilt shard, and a snapshot of that store,
// encoded, decoded and Put into a fresh one (what bootstrap does), builds
// only the one shard it fills.
func TestPutAndLoadIntoFreshStore(t *testing.T) {
	rec := flowrec.New(netsim.FlowKey{Src: 1, Dst: 2, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoTCP})
	rec.Path = []netsim.NodeID{10, 12}
	rec.Epochs = []simtime.EpochRange{{Lo: 5, Hi: 6}, {Lo: 5, Hi: 6}}
	rec.Bytes = 400

	src := New()
	if !src.Put(rec) {
		t.Fatal("Put into a fresh store rejected")
	}
	if shards := built(src); shards != 1 {
		t.Fatalf("one Put built %d shards", shards)
	}
	if got := src.BySwitch(12); len(got) != 1 || got[0].Bytes != 400 {
		t.Fatalf("fresh Put not indexed: %+v", got)
	}
	var seg bytes.Buffer
	if err := src.SnapshotShards(func(b []byte) error { seg.Write(b); return nil }); err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeSegment(&seg)
	if err != nil {
		t.Fatal(err)
	}

	dst := New()
	for _, r := range recs {
		dst.Put(r)
	}
	if shards := built(dst); shards != 1 {
		t.Fatalf("bootstrapping one record left %d shards built", shards)
	}
	if dst.Len() != 1 {
		t.Fatalf("bootstrapped Len = %d, want 1", dst.Len())
	}
	if got := dst.BySwitch(10); len(got) != 1 || got[0].Bytes != 400 {
		t.Fatalf("loaded record not indexed: %+v", got)
	}
}
