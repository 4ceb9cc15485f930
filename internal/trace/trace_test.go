package trace

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"switchpointer/internal/simtime"
)

// TestNewIDDeterministic pins NewID's output, leading zero nibbles
// included, checks it against hash/fnv over the NUL-joined parts, and checks
// that part boundaries are part of the hash.
func TestNewIDDeterministic(t *testing.T) {
	for _, c := range []struct {
		parts []string
		want  string
	}{
		{nil, "sp-cbf29ce484222325"},
		{[]string{""}, "sp-cbf29ce484222325"},
		{[]string{"", ""}, "sp-af63bd4c8601b7df"},
		{[]string{"contention", "flow", "42"}, "sp-84892d3d8708eb66"},
		{[]string{"contention", "flow42"}, "sp-bd9dd54f00ce8d6e"},
		{[]string{"top-k", "3", "100", "0", "10", "0", "50000000"}, "sp-9924206fb652fd7c"},
		{[]string{"top-k", "12100"}, "sp-000abe840ecfdfbe"},
	} {
		if got := NewID(c.parts...); got != c.want {
			t.Errorf("NewID(%q) = %s, want %s", c.parts, got, c.want)
		}
		h := fnv.New64a()
		for i, p := range c.parts {
			if i > 0 {
				h.Write([]byte{0})
			}
			h.Write([]byte(p))
		}
		if ref := fmt.Sprintf("sp-%016x", h.Sum64()); ref != c.want {
			t.Errorf("hash/fnv over %q = %s, want %s", c.parts, ref, c.want)
		}
	}
}

// canonicalModel is the map-plus-sort.SliceStable form canonical replaced:
// dedup by ID keeping the first occurrence, then a stable (Start, ID) sort.
func canonicalModel(spans []Span) []Span {
	seen := make(map[string]bool, len(spans))
	out := make([]Span, 0, len(spans))
	for _, s := range spans {
		if seen[s.ID] {
			continue
		}
		seen[s.ID] = true
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return compareID(out[i].ID, out[j].ID) < 0
	})
	return out
}

// TestCanonicalMatchesModel: on random span sets with duplicate IDs (which
// differ in Start, Name and Wall) and ties in Start, Sorted equals the model
// and leaves its input untouched.
func TestCanonicalMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(40)
		spans := make([]Span, n)
		for i := range spans {
			spans[i] = Span{
				ID:    strconv.Itoa(rng.Intn(n/2 + 1)),
				Name:  strconv.Itoa(i),
				Start: simtime.Time(rng.Intn(4)),
				Wall:  int64(i),
			}
			if rng.Intn(3) == 0 {
				spans[i].ID += ".host:" + strconv.Itoa(rng.Intn(3))
			}
		}
		in := slices.Clone(spans)
		want := canonicalModel(spans)
		got := Trace{Spans: spans}.Sorted().Spans
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: canonical\n got %+v\nwant %+v", iter, got, want)
		}
		if !reflect.DeepEqual(spans, in) {
			t.Fatalf("iteration %d: Sorted mutated its input", iter)
		}
	}
}

func TestCanonicalOrderAndDedup(t *testing.T) {
	tr := Trace{ID: "x", Spans: []Span{
		{ID: "10", Start: 5},
		{ID: "2", Start: 5},
		{ID: "0", Start: 0, Wall: 99},
		{ID: "2", Start: 7, Name: "dup-loses"},
	}}
	c := tr.Canonical()
	if len(c.Spans) != 3 {
		t.Fatalf("dedup failed: %d spans", len(c.Spans))
	}
	// (Start, ID) order with ordinal IDs comparing numerically: 0, 2, 10.
	want := []string{"0", "2", "10"}
	for i, s := range c.Spans {
		if s.ID != want[i] {
			t.Fatalf("span %d: got ID %s, want %s", i, s.ID, want[i])
		}
	}
	if c.Spans[1].Name == "dup-loses" {
		t.Fatal("dedup kept the later span")
	}
	if c.Spans[0].Wall != 0 {
		t.Fatal("Canonical did not strip Wall")
	}
	if tr.Spans[2].Wall != 99 {
		t.Fatal("Canonical mutated the source trace")
	}
}

func TestRecorderPhasesAndFinish(t *testing.T) {
	rec := NewRecorder("sp-1", "analyzer", "contention")
	rec.Anchor(100)
	rec.Anchor(999) // ignored: only the first anchor takes effect
	if got := rec.NextPhaseID(); got != "1" {
		t.Fatalf("NextPhaseID before phases: %s", got)
	}
	rec.Phase("detection", 100, 150)
	rec.AnnotateLast(Attr{Key: "k", Value: "v"})
	rec.Phase("alert", 150, 200)
	if got := rec.NextPhaseID(); got != "3" {
		t.Fatalf("NextPhaseID after two phases: %s", got)
	}
	rec.Record(Span{ID: "adm", Parent: "0", Name: "queue-wait", Start: 100, End: 100, Wall: 55})
	rec.Finish(200)
	rec.Finish(300) // ignored

	tr := rec.Trace()
	if tr.ID != "sp-1" {
		t.Fatalf("trace ID: %s", tr.ID)
	}
	byID := map[string]Span{}
	for _, s := range tr.Spans {
		byID[s.ID] = s
	}
	root := byID["0"]
	if root.Start != 100 || root.End != 200 {
		t.Fatalf("root span [%d,%d], want [100,200]", root.Start, root.End)
	}
	if byID["1"].Name != "detection" || byID["2"].Name != "alert" {
		t.Fatalf("phase ordinals wrong: %+v", tr.Spans)
	}
	if len(byID["1"].Attrs) != 1 || byID["1"].Attrs[0].Key != "k" {
		t.Fatalf("AnnotateLast missed: %+v", byID["1"])
	}
	if byID["adm"].Wall != 55 {
		t.Fatal("Record dropped the adm span")
	}
	for _, s := range tr.Spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.ID)
		}
	}
}

// TestRecorderAttrsDoNotAlias: spans' attributes share the recorder's arena,
// yet a second annotation of a span, an append to a returned span's Attrs
// and a later span's annotation never overwrite one another.
func TestRecorderAttrsDoNotAlias(t *testing.T) {
	rec := NewRecorder("sp-1", "analyzer", "contention")
	rec.Phase("a", 0, 1)
	rec.AnnotateLast(Attr{Key: "a1", Value: "1"})
	rec.Phase("b", 1, 2)
	rec.AnnotateLast(Attr{Key: "b1", Value: "1"})
	tr := rec.Trace()
	_ = append(tr.Spans[1].Attrs, Attr{Key: "x"})
	rec.AnnotateLast(Attr{Key: "b2", Value: "2"})
	rec.Phase("c", 2, 3)
	for i := 0; i < 20; i++ {
		rec.AnnotateLast(Attr{Key: "c" + strconv.Itoa(i)})
	}
	tr = rec.Trace()
	want := map[string][]string{"1": {"a1"}, "2": {"b1", "b2"}}
	for _, s := range tr.Spans {
		var keys []string
		for _, a := range s.Attrs {
			keys = append(keys, a.Key)
		}
		if w, ok := want[s.ID]; ok && !reflect.DeepEqual(keys, w) {
			t.Fatalf("span %s attrs %v, want %v", s.ID, keys, w)
		}
		if s.ID == "3" && (len(keys) != 20 || keys[19] != "c19") {
			t.Fatalf("span 3 attrs %v", keys)
		}
	}
}

func TestRemoteContextHeaderRoundTrip(t *testing.T) {
	rc := RemoteContext{TraceID: "sp-abc", Parent: "4", At: simtime.Time(123456789)}
	got, ok := ParseRemote(rc.Encode())
	if !ok || got != rc {
		t.Fatalf("round trip: %+v ok=%v", got, ok)
	}
	if _, ok := ParseRemote(""); ok {
		t.Fatal("empty header parsed")
	}
	if _, ok := ParseRemote(";;12"); ok {
		t.Fatal("empty trace ID parsed")
	}
	if _, ok := ParseRemote("sp-x;1;notanumber"); ok {
		t.Fatal("bad timestamp parsed")
	}
}

func TestFlightRecorderMergeAndEvict(t *testing.T) {
	fr := NewFlightRecorder("host", 2)
	fr.Record("t1", Span{ID: "0", Name: "first"})
	fr.Record("t1", Span{ID: "0", Name: "dup"}, Span{ID: "1"})
	fr.Record("t2", Span{ID: "0"})
	fr.Record("t3", Span{ID: "0"}) // evicts t1

	if _, ok := fr.Get("t1"); ok {
		t.Fatal("t1 not evicted")
	}
	if got := fr.List(); len(got) != 2 || got[0] != "t2" || got[1] != "t3" {
		t.Fatalf("List: %v", got)
	}
	fr.Record("t1", Span{ID: "0", Name: "again"}) // re-admitted, evicts t2
	tr, ok := fr.Get("t1")
	if !ok || len(tr.Spans) != 1 || tr.Spans[0].Name != "again" {
		t.Fatalf("re-admitted t1: %+v ok=%v", tr, ok)
	}
}

// TestFlightRecordDoesNotRescanTrace: merging into a trace costs the spans
// being merged, not the ones it holds — a query-derived trace ID lands every
// child span of a 96-host fan-out in one trace, one Record call each.
func TestFlightRecordDoesNotRescanTrace(t *testing.T) {
	fr := NewFlightRecorder("host", 2)
	for i := 0; i < 1000; i++ {
		fr.Record("t1", Span{ID: strconv.Itoa(i)})
	}
	dup := Span{ID: "500", Name: "dup"}
	if allocs := testing.AllocsPerRun(100, func() { fr.Record("t1", dup) }); allocs != 0 {
		t.Fatalf("Record of a known span into a 1000-span trace: %v allocs, want 0", allocs)
	}
	if tr, _ := fr.Get("t1"); len(tr.Spans) != 1000 {
		t.Fatalf("trace holds %d spans, want 1000", len(tr.Spans))
	}
}

func TestFlightHandlerDoubleFetchByteIdentical(t *testing.T) {
	fr := NewFlightRecorder("analyzer", 0)
	fr.SetPeers(map[string]string{"hosts": "http://h", "switches": "http://s"})
	fr.Record("t1", Span{ID: "0", Name: "root", Start: 1, End: 9}, Span{ID: "1", Parent: "0", Start: 2, End: 3})
	srv := httptest.NewServer(fr.Handler())
	defer srv.Close()

	fetch := func(path string, wantCode int) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	idx1 := fetch("/", 200)
	idx2 := fetch("/", 200)
	if idx1 != idx2 {
		t.Fatalf("index double fetch differs:\n%s\n%s", idx1, idx2)
	}
	tr1 := fetch("/t1", 200)
	tr2 := fetch("/t1", 200)
	if tr1 != tr2 {
		t.Fatalf("trace double fetch differs:\n%s\n%s", tr1, tr2)
	}
	fetch("/nope", 404)
}
