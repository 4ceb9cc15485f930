package rpc

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
)

// memCold is an in-memory cold tier: encoded segments and their manifests.
type memCold struct {
	segs      [][]byte
	manifests []store.SegmentManifest
}

func (c *memCold) add(t testing.TB, tiered bool, recs ...*flowrec.Record) {
	t.Helper()
	seg, err := flowrec.AppendSegment(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	m := store.NewSegmentManifest(recs)
	m.Bytes, m.Tiered = len(seg), tiered
	c.segs, c.manifests = append(c.segs, seg), append(c.manifests, m)
}

func (c *memCold) View() store.ColdView                  { return c }
func (c *memCold) Len() int                              { return len(c.segs) }
func (c *memCold) Manifest(i int) *store.SegmentManifest { return &c.manifests[i] }
func (c *memCold) Close()                                {}
func (c *memCold) ReadSegment(i int, keep func(*flowrec.Record) bool, fn func(*flowrec.Record, []byte)) (int, error) {
	if c.manifests[i].Tiered {
		return 0, store.ErrTiered
	}
	return flowrec.ScanSegment(c.segs[i], keep, fn)
}

// wireRecord is a flow through switches 1 → sw → 3, seen at epochs lo..lo+1.
func wireRecord(src netsim.IPv4, sw netsim.NodeID, lo simtime.Epoch) *flowrec.Record {
	r := flowrec.New(netsim.FlowKey{Src: src, Dst: 0x0a000063, SrcPort: 9, DstPort: 80, Proto: netsim.ProtoTCP})
	r.Priority = uint8(src % 4)
	r.Path = []netsim.NodeID{1, sw, 3}
	for range r.Path {
		r.Epochs = append(r.Epochs, simtime.EpochRange{Lo: lo, Hi: lo + 1})
	}
	r.TagIdx, r.TagLink = 1, 7
	r.Bytes, r.Pkts = 1500*uint64(src), uint64(src)
	r.AddEpochBytes(lo, r.Bytes)
	r.FirstSeen, r.LastSeen = simtime.Time(lo)*simtime.Millisecond, simtime.Time(lo+1)*simtime.Millisecond
	return r
}

// wireAgent is a host agent with hot records at switches 2 and 4 and a cold
// tier behind them: a segment at switch 2 holding a record with a nil
// EpochBytes and an older version of a hot flow, one at switch 4, and a
// tiered-out one.
func wireAgent(t testing.TB) *hostagent.Agent {
	st := store.New()
	for src := netsim.IPv4(1); src <= 6; src++ {
		st.Put(wireRecord(src, 2+2*netsim.NodeID(src%2), simtime.Epoch(10+src)))
	}
	bare := wireRecord(40, 2, 3)
	bare.EpochBytes = nil
	cold := &memCold{}
	cold.add(t, false, wireRecord(41, 2, 4), bare, wireRecord(2, 2, 5))
	cold.add(t, false, wireRecord(42, 4, 6))
	cold.add(t, true, wireRecord(43, 2, 4))
	ag := &hostagent.Agent{Store: st}
	ag.SetColdReader(cold)
	return ag
}

// TestHeadersBatchOverTheWire: every /headers-batch answer and every
// /record answer equals the agent's direct one — records, order, nil-versus-
// empty and the cold counters — over a real socket.
func TestHeadersBatchOverTheWire(t *testing.T) {
	ag := wireAgent(t)
	srv := httptest.NewServer(NewHostHandler(ag, "", nil))
	defer srv.Close()
	client, ctx := NewHTTPClient(nil), context.Background()

	all := simtime.EpochRange{Lo: 0, Hi: 100}
	qs := []hostagent.HeadersQuery{
		{Switch: 2, Epochs: all},                              // hot and cold, a nil EpochBytes, a tiered segment
		{Switch: 4, Epochs: simtime.EpochRange{Lo: 0, Hi: 9}}, // cold only
		{Switch: 9, Epochs: all},                              // on no path: an empty answer
		{Switch: 2, Epochs: simtime.EpochRange{Lo: 13, Hi: 14}, Flows: []netsim.FlowKey{wireRecord(4, 2, 0).Flow}},
	}
	want := ag.QueryHeadersMulti(ctx, qs)
	got, err := client.QueryHeadersBatch(ctx, srv.URL, qs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wire answers differ from the agent's:\n got %+v\nwant %+v", got, want)
	}
	nilBytes := false
	for _, r := range want[0].Records {
		nilBytes = nilBytes || r.EpochBytes == nil
	}
	if !nilBytes || want[0].ColdSegments == 0 || want[0].TieredSegments == 0 || want[1].ColdReturned == 0 ||
		want[2].Records != nil || len(want[3].Records) != 1 {
		t.Fatalf("the fixture no longer covers what this test is about: %+v", want)
	}

	for _, flow := range []netsim.FlowKey{wireRecord(3, 0, 0).Flow, wireRecord(40, 0, 0).Flow, wireRecord(41, 0, 0).Flow, {Src: 77}} {
		wantRec, wantKnown := ag.LookupRecord(ctx, flow)
		rec, known, err := client.QueryRecord(ctx, srv.URL, flow)
		if err != nil || known != wantKnown || !reflect.DeepEqual(rec, wantRec) {
			t.Fatalf("record %v over the wire = %+v, %v, %v; want %+v, %v", flow, rec, known, err, wantRec, wantKnown)
		}
	}
}

// TestCorruptAnswerIsAnError: a segment that does not decode fails the
// whole call, naming the answer — never an empty answer.
func TestCorruptAnswerIsAnError(t *testing.T) {
	good, err := flowrec.AppendSegment(nil, []*flowrec.Record{wireRecord(1, 2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(body any) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, body) }))
	}
	client, ctx := NewHTTPClient(nil), context.Background()
	qs := make([]hostagent.HeadersQuery, 3)
	for name, bad := range map[string][]byte{
		"truncated": good[:len(good)-1],
		"missing":   nil,
		"foreign":   []byte("not a flowrec segment at all"),
	} {
		srv := serve(HeadersBatchResponse{Answers: []HeadersResponse{{Segment: good}, {Segment: good}, {Segment: bad}}})
		answers, err := client.QueryHeadersBatch(ctx, srv.URL, qs)
		srv.Close()
		if answers != nil || err == nil || !strings.Contains(err.Error(), "answer 2") {
			t.Fatalf("%s segment in answer 2: %v, %v; want no answers and an error naming answer 2", name, answers, err)
		}
	}
	two, err := flowrec.AppendSegment(nil, []*flowrec.Record{wireRecord(1, 2, 3), wireRecord(2, 2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range [][]byte{good[:len(good)-1], two} {
		srv := serve(RecordResponse{Segment: seg, Known: true})
		rec, known, err := client.QueryRecord(ctx, srv.URL, netsim.FlowKey{})
		srv.Close()
		if rec != nil || known || err == nil {
			t.Fatalf("a known record carried as %d bytes: %v, %v, %v; want an error", len(seg), rec, known, err)
		}
	}
}

// decodeHeadersBatch is the client's decode of a /headers-batch body.
func decodeHeadersBatch(body []byte) ([]hostagent.HeadersAnswer, error) {
	var out HeadersBatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return out.answers()
}

// FuzzHeadersBatchAnswer: arbitrary bytes as a /headers-batch body decode to
// answers or an error, never a panic, and whatever decodes survives the
// host's encode and the client's decode again, deep-equal.
func FuzzHeadersBatchAnswer(f *testing.F) {
	ag := wireAgent(f)
	answers, segs, err := ag.AnswerHeaders(context.Background(), []hostagent.HeadersQuery{
		{Switch: 2, Epochs: simtime.EpochRange{Lo: 0, Hi: 100}},
		{Switch: 9, Epochs: simtime.EpochRange{Lo: 0, Hi: 100}},
	})
	if err != nil {
		f.Fatal(err)
	}
	body, err := json.Marshal(newHeadersBatchResponse(answers, segs))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		answers, err := decodeHeadersBatch(body)
		if err != nil {
			return
		}
		// The host ships each answer's records as one segment.
		segs := make([][]byte, len(answers))
		for i := range answers {
			if segs[i], err = flowrec.AppendSegment(nil, answers[i].Records); err != nil {
				t.Fatal(err)
			}
		}
		again, err := json.Marshal(newHeadersBatchResponse(answers, segs))
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeHeadersBatch(again)
		if err != nil {
			t.Fatalf("the host's encode of decoded answers does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, answers) {
			t.Fatalf("round trip changed the answers:\n got %+v\nwant %+v", back, answers)
		}
	})
}
