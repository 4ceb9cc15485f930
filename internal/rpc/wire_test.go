package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/header"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/mph"
	"switchpointer/internal/netsim"
	"switchpointer/internal/pointer"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
	"switchpointer/internal/switchagent"
	"switchpointer/internal/topo"
	"switchpointer/internal/transport"
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
func (c *memCold) ReadSegment(i int, keep func(*flowrec.Cursor) bool, fn func(*flowrec.Cursor)) (int, error) {
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

// answerRecords decodes an answer's segment into the records it carries, nil
// when none: the decoded record is the oracle the in-place readers are
// checked against.
func answerRecords(t testing.TB, ans hostagent.HeadersAnswer) []*flowrec.Record {
	t.Helper()
	recs, err := flowrec.DecodeSegment(ans.Segment)
	if err != nil {
		t.Fatalf("answer segment: %v", err)
	}
	if len(recs) == 0 {
		return nil
	}
	return recs
}

// TestHeadersBatchOverTheWire: every /headers-batch answer and every
// /record answer equals the agent's direct one — segment bytes, so records,
// order and nil-versus-empty EpochBytes, and the cold counters — over a real
// socket.
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
	for _, r := range answerRecords(t, want[0]) {
		nilBytes = nilBytes || r.EpochBytes == nil
	}
	if !nilBytes || want[0].ColdSegments == 0 || want[0].TieredSegments == 0 || want[1].ColdReturned == 0 ||
		answerRecords(t, want[2]) != nil || len(answerRecords(t, want[3])) != 1 {
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
	if err := out.decodeWire(body); err != nil {
		return nil, err
	}
	return out.answers()
}

// FuzzHeadersBatchAnswer: arbitrary bytes as a /headers-batch body decode to
// answers or an error, never a panic; every answer the client accepts holds
// a segment that decodes, and the decoded records survive the host's encode
// and the client's decode again, deep-equal.
func FuzzHeadersBatchAnswer(f *testing.F) {
	ag := wireAgent(f)
	answers, _, err := ag.AnswerHeaders(context.Background(), []hostagent.HeadersQuery{
		{Switch: 2, Epochs: simtime.EpochRange{Lo: 0, Hi: 100}},
		{Switch: 9, Epochs: simtime.EpochRange{Lo: 0, Hi: 100}},
	}, nil)
	if err != nil {
		f.Fatal(err)
	}
	body, err := json.Marshal(newHeadersBatchResponse(answers))
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
		recs := make([][]*flowrec.Record, len(answers))
		for i := range answers {
			recs[i] = answerRecords(t, answers[i])
			if answers[i].Segment, err = flowrec.AppendSegment(nil, recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		again, err := json.Marshal(newHeadersBatchResponse(answers))
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeHeadersBatch(again)
		if err != nil {
			t.Fatalf("the host's encode of decoded answers does not decode: %v", err)
		}
		for i := range back {
			if got := answerRecords(t, back[i]); !reflect.DeepEqual(got, recs[i]) {
				t.Fatalf("round trip changed answer %d's records:\n got %+v\nwant %+v", i, got, recs[i])
			}
		}
		if !reflect.DeepEqual(back, answers) {
			t.Fatalf("round trip changed the answers:\n got %+v\nwant %+v", back, answers)
		}
	})
}

// FuzzHeadersBatchDecode: for every body, the client's decode of a
// /headers-batch answer and json.Unmarshal agree on whether it fails and, when
// it does not, on the decoded value; and no decoded segment aliases the body,
// which Call reuses for the next answer. The committed seeds hold each body
// the one-pass reader must leave to json.Unmarshal.
func FuzzHeadersBatchDecode(f *testing.F) {
	ag := wireAgent(f)
	answers, _, err := ag.AnswerHeaders(context.Background(), []hostagent.HeadersQuery{
		{Switch: 2, Epochs: simtime.EpochRange{Lo: 0, Hi: 100}},
		{Switch: 9, Epochs: simtime.EpochRange{Lo: 0, Hi: 100}},
	}, nil)
	if err != nil {
		f.Fatal(err)
	}
	body, err := json.Marshal(newHeadersBatchResponse(answers))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		var want HeadersBatchResponse
		wantErr := json.Unmarshal(body, &want)
		var got HeadersBatchResponse
		own := bytes.Clone(body)
		gotErr := got.decodeWire(own)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeWire err %v, json.Unmarshal err %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		clear(own)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeWire, once its body is cleared, differs from json.Unmarshal:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestHostEncodesTakeTheFastPath: every body a host writes — random answers,
// counts and records, marshalled bare or with json.Encoder's newline — is
// read by the one-pass reader, not json.Unmarshal, and decodes to what
// json.Unmarshal decodes it to.
func TestHostEncodesTakeTheFastPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	count := func() int {
		switch rng.IntN(4) {
		case 0:
			return 0 // omitted
		case 1:
			return math.MaxInt
		default:
			return 1 + rng.IntN(1_000_000)
		}
	}
	for i := range 2000 {
		answers := make([]hostagent.HeadersAnswer, rng.IntN(9))
		for j := range answers {
			recs := make([]*flowrec.Record, rng.IntN(6))
			for k := range recs {
				recs[k] = wireRecord(netsim.IPv4(1+rng.IntN(1<<20)), netsim.NodeID(rng.IntN(8)), simtime.Epoch(rng.IntN(1000)))
			}
			seg, err := flowrec.AppendSegment(nil, recs)
			if err != nil {
				t.Fatal(err)
			}
			answers[j] = hostagent.HeadersAnswer{Segment: seg, ColdSegments: count(), ColdRecords: count(),
				ColdReturned: count(), ColdSkippedByIndex: count(), TieredSegments: count()}
		}
		body, err := json.Marshal(newHeadersBatchResponse(answers))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			body = append(body, '\n')
		}
		got, ok := decodeCanonical(body)
		if !ok {
			t.Fatalf("encode %d is not read in one pass: %s", i, body)
		}
		var want HeadersBatchResponse
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("encode %d: one pass read\n %+v\njson.Unmarshal\n %+v", i, got, want)
		}
	}
}

// BenchmarkHeadersBatchDecode reads one host body of 8 answers, each a
// segment of 16 records, through the client's one-pass reader and through
// json.Unmarshal.
func BenchmarkHeadersBatchDecode(b *testing.B) {
	answers := make([]hostagent.HeadersAnswer, 8)
	for i := range answers {
		recs := make([]*flowrec.Record, 16)
		for j := range recs {
			recs[j] = wireRecord(netsim.IPv4(1+16*i+j), 2, simtime.Epoch(i))
		}
		seg, err := flowrec.AppendSegment(nil, recs)
		if err != nil {
			b.Fatal(err)
		}
		answers[i] = hostagent.HeadersAnswer{Segment: seg, ColdSegments: i}
	}
	body, err := json.Marshal(newHeadersBatchResponse(answers))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func(*HeadersBatchResponse) error
	}{
		{"one-pass", func(br *HeadersBatchResponse) error { return br.decodeWire(body) }},
		{"json", func(br *HeadersBatchResponse) error { return json.Unmarshal(body, br) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				var br HeadersBatchResponse
				if err := c.decode(&br); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestOnlyCanonicalSeedsTakeTheFastPath: of FuzzHeadersBatchDecode's
// committed seeds, those named canonical are read in one pass and every
// other one is left to json.Unmarshal.
func TestOnlyCanonicalSeedsTakeTheFastPath(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzHeadersBatchDecode")
	seeds, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		raw, err := os.ReadFile(filepath.Join(dir, seed.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		body, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("seed %s: not one []byte value: %v", seed.Name(), err)
		}
		want := strings.HasPrefix(seed.Name(), "canonical")
		if _, fast := decodeCanonical([]byte(body)); fast != want {
			t.Errorf("seed %s: read in one pass %v, want %v", seed.Name(), fast, want)
		}
	}
}

// TestPointersAndMPHWireBytes pins the exact JSON of one /pointers answer
// and one /mph request: both carry binary tables as standard base64 under
// hosts_b64 and table_b64.
func TestPointersAndMPHWireBytes(t *testing.T) {
	net := netsim.New()
	tp := topo.Chain(net, []int{1, 0, 1}, topo.Config{})
	alpha := 10 * simtime.Millisecond
	params := header.Params{Alpha: alpha, Eps: alpha, Delta: 2 * alpha}
	hosts := tp.Hosts()
	table, err := mph.Build([]uint32{uint32(hosts[0].IP()), uint32(hosts[1].IP())})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := switchagent.New(net, tp, tp.Switches()[0], switchagent.Config{
		Pointer: pointer.Config{Alpha: alpha, K: 2, NumHosts: len(hosts)},
		Mode:    header.ModeCommodity,
		Params:  params,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw.InstallMPH(table)
	transport.StartUDP(net, hosts[0], transport.UDPConfig{
		Flow:     netsim.FlowKey{Src: hosts[0].IP(), Dst: hosts[1].IP(), SrcPort: 7, DstPort: 8, Proto: netsim.ProtoUDP},
		Priority: 2, RateBps: 200_000_000, Duration: 25 * simtime.Millisecond})
	net.RunUntil(40 * simtime.Millisecond)

	srv := httptest.NewServer(NewSwitchHandler(sw, "", nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/pointers", "application/json", strings.NewReader(`{"epoch_lo":0,"epoch_hi":2}`))
	if err != nil {
		t.Fatal(err)
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const wantAnswer = `{"hosts_b64":"AgAAAAAAAAACAAAAAAAAAA==","level":1,"slots":3,"covered":true,"source":"live"}` + "\n"
	if string(answer) != wantAnswer {
		t.Fatalf("/pointers answer:\n got %s\nwant %s", answer, wantAnswer)
	}

	var request []byte
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		request, _ = io.ReadAll(r.Body)
		w.Write([]byte("{}\n"))
	}))
	defer sink.Close()
	if err := NewHTTPClient(nil).InstallMPH(context.Background(), sink.URL, table); err != nil {
		t.Fatal(err)
	}
	const wantRequest = `{"table_b64":"FXxKf7l5N54CAAAAAgAAAAIAAAABAAAAQAQoAAAAAAAAAA=="}`
	if string(request) != wantRequest {
		t.Fatalf("/mph request:\n got %s\nwant %s", request, wantRequest)
	}
}
