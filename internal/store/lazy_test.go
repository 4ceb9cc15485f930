package store

import (
	"bytes"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// built counts the shards whose maps exist and reports whether the store's
// merge cache does. -1 shards: a shard's built flag disagrees with its map.
func built(st *RecordStore) (shards int, mergeCache bool) {
	for i := range st.shards {
		sh := &st.shards[i]
		if sh.recs != nil || sh.paths != nil || sh.memos != nil {
			shards++
		}
		if (sh.recs != nil) != sh.built.Load() {
			return -1, false
		}
	}
	return shards, st.merged != nil || st.gens != nil
}

var newSink *RecordStore

// TestNewIsOneAllocation gates the lazy-shard contract at its cheapest end:
// a testbed builds one store per host and most never hold a record.
func TestNewIsOneAllocation(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { newSink = New() }); allocs > 1 {
		t.Fatalf("New: %v allocs, want <= 1", allocs)
	}
	if shards, cache := built(newSink); shards != 0 || cache {
		t.Fatalf("New built %d shards (merge cache: %v)", shards, cache)
	}
}

// TestFirstWriteBuildsOneShard: a store that absorbed one flow has built
// the one shard that flow hashes to, and answers for it.
func TestFirstWriteBuildsOneShard(t *testing.T) {
	st := New()
	flow := seedRecord(st, 7, 100, 10, 11)
	if shards, cache := built(st); shards != 1 || !cache {
		t.Fatalf("one absorbed flow built %d shards (merge cache: %v), want 1 (true)", shards, cache)
	}
	if got := st.BySwitch(11); len(got) != 1 || got[0].Flow != flow {
		t.Fatalf("BySwitch(11) = %+v", got)
	}
	if st.Len() != 1 || len(st.All()) != 1 {
		t.Fatalf("Len = %d, All = %d, want 1", st.Len(), len(st.All()))
	}
	if shards, _ := built(st); shards != 1 {
		t.Fatalf("reading built %d more shards", shards-1)
	}
}

// TestNeverWrittenStoreAnswersEmpty runs every read-side and maintenance
// API over a store nothing was written to: each answers empty from nil
// maps and none builds a shard or the merge cache.
func TestNeverWrittenStoreAnswersEmpty(t *testing.T) {
	st := New()
	st.SetRetention(Retention{Alpha: 10, HotEpochs: 2, MaxRecords: 4})
	flow := netsim.FlowKey{Src: 1, Dst: 2, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoTCP}

	if st.Len() != 0 || len(st.All()) != 0 {
		t.Fatalf("Len = %d, All = %d", st.Len(), len(st.All()))
	}
	if got := st.BySwitch(10); got != nil {
		t.Fatalf("BySwitch = %+v", got)
	}
	st.QueryBySwitch(10, func(*flowrec.Record) bool { t.Fatal("QueryBySwitch visited a record"); return false })
	if st.View(flow, func(*flowrec.Record) { t.Fatal("View visited a record") }) {
		t.Fatal("View reported a record")
	}
	if _, ok := st.Lookup(flow); ok {
		t.Fatal("Lookup reported a record")
	}
	if err := st.SnapshotShards(EveryEpoch, func([]*flowrec.Record) error { t.Fatal("SnapshotShards visited a shard"); return nil }); err != nil {
		t.Fatal(err)
	}
	if n, err := st.Maintain(simtime.Time(1000)); n != 0 || err != nil {
		t.Fatalf("Maintain = %d, %v", n, err)
	}
	if st.Generations() != 0 {
		t.Fatalf("Generations = %d", st.Generations())
	}
	var buf bytes.Buffer
	if err := st.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	if recs, err := DecodeSegment(&buf); err != nil || len(recs) != 0 {
		t.Fatalf("flushed segment decodes to %d records, %v", len(recs), err)
	}
	if shards, cache := built(st); shards != 0 || cache {
		t.Fatalf("reading a never-written store built %d shards (merge cache: %v)", shards, cache)
	}
}

// TestPutAndLoadIntoFreshStore covers the two writers that do not go
// through Acquire: Put installs into an unbuilt shard, and Load both fills
// a fresh store and returns a populated one to the never-written state
// before refilling it.
func TestPutAndLoadIntoFreshStore(t *testing.T) {
	rec := flowrec.New(netsim.FlowKey{Src: 1, Dst: 2, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoTCP})
	rec.Path = []netsim.NodeID{10, 12}
	rec.Epochs = []simtime.EpochRange{{Lo: 5, Hi: 6}, {Lo: 5, Hi: 6}}
	rec.Bytes = 400

	src := New()
	if !src.Put(rec) {
		t.Fatal("Put into a fresh store rejected")
	}
	if shards, _ := built(src); shards != 1 {
		t.Fatalf("one Put built %d shards", shards)
	}
	if got := src.BySwitch(12); len(got) != 1 || got[0].Bytes != 400 {
		t.Fatalf("fresh Put not indexed: %+v", got)
	}
	var seg bytes.Buffer
	if err := src.Flush(&seg); err != nil {
		t.Fatal(err)
	}

	dst := New()
	for i := 1; i <= 4*numShards; i++ { // contents Load must replace
		addRecord(dst, netsim.IPv4(i), 7, []netsim.NodeID{42}, i)
	}
	if err := dst.Load(&seg); err != nil {
		t.Fatal(err)
	}
	if shards, _ := built(dst); shards != 1 {
		t.Fatalf("Load of one record left %d shards built", shards)
	}
	if dst.Len() != 1 || len(dst.BySwitch(42)) != 0 {
		t.Fatalf("Load kept old contents: Len = %d, BySwitch(42) = %d", dst.Len(), len(dst.BySwitch(42)))
	}
	if got := dst.BySwitch(10); len(got) != 1 || got[0].Bytes != 400 {
		t.Fatalf("loaded record not indexed: %+v", got)
	}
}
