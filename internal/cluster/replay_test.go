//go:build !race

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
	"switchpointer/internal/trace"
)

// TestReplayAllocBudget is the in-tree gate on the write path's allocation
// debt: building the paper's Fig 8 point (load imbalance, n = 96) and
// playing it to the horizon — what the benchmark's sim-replay workload,
// every spd start-up and every figure regeneration does — stays within
// 7 450 allocations, 2 % over the ≈ 7 305 measured. One event queue that
// grows by doubling and store shards built on first write took it from
// ≈ 66 300 to ≈ 9 500; a per-agent flow table in place of a meter map and an
// alert map per host took it from ≈ 7 980 to ≈ 7 305. An allocation per
// packet, per event or per idle host shows up here long before it shows up
// as time. Not built under -race: sync.Pool then drops a quarter of its
// Puts, so netsim's pooled packets are re-allocated at random.
func TestReplayAllocBudget(t *testing.T) {
	const budget = 7_450
	events := uint64(0)
	allocs := testing.AllocsPerRun(2, func() {
		s, err := BuildScenarioOpt("loadimbalance", 0, 96, scenario.Options{ClockSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		events = s.Testbed.Net.Engine.Processed()
		s.Testbed.Close()
	})
	if events == 0 {
		t.Fatal("the replay ran no events")
	}
	if allocs > budget {
		t.Fatalf("loadimbalance n=96 build+run: %v allocs, want <= %d", allocs, budget)
	}
	t.Logf("loadimbalance n=96 build+run: %v allocs (budget %d), %d events", allocs, budget, events)
}

// TestPriorityReplayAllocBudget is TestReplayAllocBudget's TCP twin:
// building the priority-contention scenario and playing it to the horizon
// stays within 1 876 allocations (≈ 1 838 measured; 1 876 with a meter map
// per host, which a host's flow table must not cost more than), and leaves
// at most 64 events queued (13 measured). Every TCP segment and every new ACK re-arms
// its sender's retransmission timer: a callback bound per arm instead of
// once per sender costs one allocation per segment (≈ 14 900 here), and a
// timer stopped and re-queued per arm instead of re-armed lazily leaves a
// cancelled event queued per segment (≈ 13 000 at the horizon).
func TestPriorityReplayAllocBudget(t *testing.T) {
	const budget, pendingCap = 1_876, 64
	pending := 0
	allocs := testing.AllocsPerRun(2, func() {
		s, err := BuildScenarioOpt("priority", 0, 0, scenario.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		if s.Testbed.Net.Engine.Processed() == 0 {
			t.Fatal("the replay ran no events")
		}
		pending = s.Testbed.Net.Engine.Pending()
		s.Testbed.Close()
	})
	if allocs > budget {
		t.Fatalf("priority build+run: %v allocs, want <= %d", allocs, budget)
	}
	if pending > pendingCap {
		t.Fatalf("priority build+run: %d events pending at the horizon, want <= %d", pending, pendingCap)
	}
	t.Logf("priority build+run: %v allocs (budget %d), %d events pending (cap %d)", allocs, budget, pending, pendingCap)
}

// TestRoundTripAllocBudget is the in-tree gate on the service plane's
// per-request cost: one traced /topk round trip — rpc.HTTPClient.Call on a
// pooled client, net/http both ways, rpc.Endpoint, the child span — stays
// within 116 allocations (118 for the hand-written handler and client it
// replaced; Call decoding from a pooled buffer instead of a json.Decoder took
// two more). diag-fanout makes 96 of these per diagnosis, so one allocation
// here is 96 there: an encoder built inside Endpoint's generic closure (it
// escapes) or a third closure per route shows up as 117. The
// queried switch holds no flows, so the answer is empty and the count is the
// exchange's own.
func TestRoundTripAllocBudget(t *testing.T) {
	const budget = 116
	s, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	defer s.Testbed.Close()
	ip := s.Testbed.Topo.Hosts()[0].IP()
	fr := trace.NewFlightRecorder("host", 0)
	srv := httptest.NewServer(rpc.NewHostHandler(s.Testbed.HostAgents[ip], ip.String(), fr))
	defer srv.Close()
	client := rpc.NewPooledHTTPClient()
	defer client.CloseIdleConnections()

	ctx := trace.ContextWithRemote(context.Background(), trace.RemoteContext{TraceID: "t", Parent: "0.1", At: 5})
	const noSuchSwitch = 1 << 20
	allocs := testing.AllocsPerRun(200, func() {
		if flows, err := client.QueryTopK(ctx, srv.URL, noSuchSwitch, 100); err != nil || len(flows) != 0 {
			t.Fatalf("topk = %v, %v", flows, err)
		}
	})
	if tr, ok := fr.Get("t"); !ok || len(tr.Spans) != 1 || tr.Spans[0].ID != "0.1.host:"+ip.String()+":topk" {
		t.Fatalf("traced round trip left %+v, want the one topk child span", tr.Spans)
	}
	if allocs > budget {
		t.Fatalf("traced /topk round trip: %v allocs, want <= %d", allocs, budget)
	}
	t.Logf("traced /topk round trip: %v allocs (budget %d)", allocs, budget)
}

// TestHeadersBatchAllocBudget is the in-tree gate on the record path's
// per-record cost: one traced /headers-batch round trip answering 1 024 hot
// 5-hop records costs no allocation more than the same round trip answering
// 512 of them from the same host. The host copies each record's stored bytes
// into the answer segment, and the client reads the body in one pass into
// one slab and one answer slice, walks the segment once and hands it on
// undecoded. Decoding the body through json.Unmarshal cost 7 allocations
// more a round trip (135 for 1 024 records), decoding each record on the
// client 3 a record (its EpochBytes map 2), cloning each record on the host
// 7, and records decoded from JSON objects 20. Both answers are sent
// chunked: an empty answer, sent with a Content-Length, costs the exchange
// 4 allocations fewer, so it cannot stand for the exchange's own cost here.
func TestHeadersBatchAllocBudget(t *testing.T) {
	const perRecord, hot = 0, 1024
	recs := budgetRecords(hot)
	for _, r := range recs[hot/2:] {
		r.Path[1] = 16 // the second half does not pass switch 17
	}
	st := store.New()
	for _, r := range recs {
		st.Put(r)
	}
	srv, fr := serveTracedHost(t, &hostagent.Agent{Store: st})
	all := simtime.EpochRange{Lo: 0, Hi: 100}
	half := headersRoundTripAllocs(t, srv.URL, hostagent.HeadersQuery{Switch: 17, Epochs: all}, hot/2)
	full := headersRoundTripAllocs(t, srv.URL, hostagent.HeadersQuery{Switch: 18, Epochs: all}, hot)
	if tr, ok := fr.Get("t"); !ok || len(tr.Spans) != 1 || tr.Spans[0].ID != "0.1.host:h:headers-batch" {
		t.Fatalf("traced round trip left %+v, want the one headers-batch child span", tr.Spans)
	}
	per := (full - half) / (hot / 2)
	if per > perRecord {
		t.Fatalf("traced /headers-batch round trip: %.3f allocs a record (%v for %d, %v for %d), want <= %d", per, full, hot, half, hot/2, perRecord)
	}
	t.Logf("traced /headers-batch round trip: %.3f allocs a record (%v for %d, %v for %d; budget %d)", per, full, hot, half, hot/2, perRecord)
}

// TestColdHeadersBatchAllocBudget is TestHeadersBatchAllocBudget's cold
// row: the same 1 024 records, flushed to a segment log as one segment, are
// read back through /headers-batch by a host whose store holds none of them.
// A traced round trip costs no allocation a cold record kept: it costs as
// many allocations as one from a host holding the first 512 records alone.
// And the host's side of the call, served by its handler alone, allocates at
// most hostBytes, 10 % over the 6 736 B measured. The host copies kept
// records out of the segment into pooled scratch and splices its answer onto
// a pooled buffer: a copy buffer grown afresh on every call fails both checks
// (4 allocations more at 1 024 records than at 512; 217 KB a call), and so
// does a fresh answer buffer (1 more; 64 KB a call).
func TestColdHeadersBatchAllocBudget(t *testing.T) {
	const perRecord, cold, hostBytes = 0, 1024, 7_400
	recs := budgetRecords(cold)
	all := hostagent.HeadersQuery{Switch: 17, Epochs: simtime.EpochRange{Lo: 0, Hi: 100}}
	ag := coldHost(t, recs)
	srv, _ := serveTracedHost(t, ag)
	half, _ := serveTracedHost(t, coldHost(t, recs[:cold/2]))
	full := headersRoundTripAllocs(t, srv.URL, all, cold)
	fewer := headersRoundTripAllocs(t, half.URL, all, cold/2)
	per := (full - fewer) / (cold / 2)
	if per > perRecord {
		t.Fatalf("traced cold /headers-batch round trip: %.3f allocs a record kept (%v for %d, %v for %d), want <= %d", per, full, cold, fewer, cold/2, perRecord)
	}

	// The host's side alone: its handler answering a recorded request.
	const runs = 50
	h := rpc.NewHostHandler(ag, "h", nil)
	body, err := json.Marshal(rpc.HeadersBatchRequest{Queries: []rpc.HeadersRequest{{Switch: all.Switch, EpochLo: all.Epochs.Lo, EpochHi: all.Epochs.Hi}}})
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		w.code = http.StatusOK
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/headers-batch", bytes.NewReader(body)))
		if w.code != http.StatusOK {
			t.Fatalf("cold /headers-batch answered %d", w.code)
		}
	}
	// One P, as AllocsPerRun has, and no collection in the runs: a pooled
	// buffer is missed on another P, and gone after two collections.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	serve() // warms the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&after)
	host := (after.TotalAlloc - before.TotalAlloc) / runs
	if host > hostBytes {
		t.Fatalf("cold /headers-batch: the host allocates %d B a call, want <= %d", host, hostBytes)
	}
	t.Logf("traced cold /headers-batch round trip: %.3f allocs a record kept (%v for %d, %v for %d; budget %d); host %d B a call (budget %d)",
		per, full, cold, fewer, cold/2, perRecord, host, hostBytes)
}

// coldHost is a host agent with an empty store whose cold tier is one
// segment of recs in a segment log.
func coldHost(t *testing.T, recs []*flowrec.Record) *hostagent.Agent {
	log, err := statesync.NewSegmentLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var seg bytes.Buffer
	if err := store.EncodeSegment(&seg, recs); err != nil {
		t.Fatal(err)
	}
	m := store.NewSegmentManifest(recs)
	m.Bytes = seg.Len()
	if err := log.WriteSegment(m, seg.Bytes()); err != nil {
		t.Fatal(err)
	}
	ag := &hostagent.Agent{Store: store.New()}
	ag.SetColdReader(log)
	return ag
}

// budgetRecords returns n 5-hop records of distinct flows, each seen at
// switch 17, its second hop, during epochs 11..12.
func budgetRecords(n int) []*flowrec.Record {
	recs := make([]*flowrec.Record, n)
	for i := range recs {
		r := flowrec.New(netsim.FlowKey{Src: netsim.IPv4(0x0a000000 + i), Dst: 0x0a010001, SrcPort: uint16(1024 + i), DstPort: 80, Proto: netsim.ProtoTCP})
		r.Path = []netsim.NodeID{3, 17, 40, 18, 5}
		for j := range r.Path {
			r.Epochs = append(r.Epochs, simtime.EpochRange{Lo: simtime.Epoch(10 + j), Hi: simtime.Epoch(11 + j)})
		}
		r.TagIdx, r.TagLink = 2, 7
		r.Bytes, r.Pkts = uint64(1500*(i+1)), uint64(i+1)
		r.AddEpochBytes(r.Epochs[2].Lo, r.Bytes)
		r.FirstSeen, r.LastSeen = simtime.Time(i)*simtime.Millisecond, simtime.Time(i+1)*simtime.Millisecond
		recs[i] = r
	}
	return recs
}

// serveTracedHost serves ag's host handler, labelled "h", recording spans in
// the flight recorder it returns.
func serveTracedHost(t *testing.T, ag *hostagent.Agent) (*httptest.Server, *trace.FlightRecorder) {
	fr := trace.NewFlightRecorder("host", 0)
	srv := httptest.NewServer(rpc.NewHostHandler(ag, "h", fr))
	t.Cleanup(srv.Close)
	return srv, fr
}

// headersRoundTripAllocs is what one traced /headers-batch round trip asking
// q of the host at url allocates, on a pooled client; the answer must hold
// want records. No collection runs meanwhile: one empties the pools the
// answer is built in, and refilling them costs allocations that depend on
// how many collections the runs happened to meet, not on the answer.
func headersRoundTripAllocs(t *testing.T, url string, q hostagent.HeadersQuery, want int) float64 {
	client := rpc.NewPooledHTTPClient()
	defer client.CloseIdleConnections()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := trace.ContextWithRemote(context.Background(), trace.RemoteContext{TraceID: "t", Parent: "0.1", At: 5})
	qs := []hostagent.HeadersQuery{q}
	return testing.AllocsPerRun(20, func() {
		if answers, err := client.QueryHeadersBatch(ctx, url, qs); err != nil || len(answers) != 1 || segmentLen(answers[0].Segment) != want {
			t.Fatalf("headers-batch %+v = %v, %v; want %d records", q, answers, err, want)
		}
	})
}

// discardWriter is a ResponseWriter that keeps the status and drops the body.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// segmentLen is how many records segment seg declares, −1 when its header is
// corrupt.
func segmentLen(seg []byte) int {
	n, err := flowrec.SegmentRecords(seg)
	if err != nil {
		return -1
	}
	return n
}
