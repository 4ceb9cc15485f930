package cluster

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

func columnCulprits() CulpritColumn {
	return CulpritColumn{
		{
			Flow:     netsim.FlowKey{Src: netsim.IP(10, 0, 0, 1), Dst: netsim.IP(10, 0, 1, 2), SrcPort: 5001, DstPort: 80, Proto: netsim.ProtoTCP},
			Priority: 1, Bytes: 150_000, Switch: 3, Host: netsim.IP(10, 0, 1, 2),
			Overlap: simtime.EpochRange{Lo: 4, Hi: 7},
		},
		{
			Flow:     netsim.FlowKey{Src: netsim.IP(10, 0, 0, 9), Dst: netsim.IP(10, 0, 1, 2), SrcPort: 7, DstPort: 9, Proto: netsim.ProtoUDP},
			Priority: 0, Bytes: 1 << 40, Switch: -1, Host: netsim.IP(10, 0, 1, 2),
			Overlap: simtime.EpochRange{Lo: -3, Hi: 1 << 40},
		},
	}
}

func columnFlows() FlowColumn {
	return FlowColumn{
		{Flow: netsim.FlowKey{Src: netsim.IP(10, 0, 0, 1), Dst: netsim.IP(10, 0, 1, 2), SrcPort: 5001, DstPort: 80, Proto: netsim.ProtoTCP}, Bytes: 9_000},
		{Flow: netsim.FlowKey{Src: netsim.IP(10, 0, 0, 3), Dst: netsim.IP(10, 0, 1, 4), SrcPort: 1, DstPort: 2, Proto: netsim.ProtoUDP}, Bytes: 0},
	}
}

// columnJSON is the quoted base64 of raw: a column's JSON form.
func columnJSON(raw []byte) []byte {
	return []byte(`"` + base64.StdEncoding.EncodeToString(raw) + `"`)
}

// TestColumnLayout pins both columns' bytes field by field against the
// layout their doc comments give.
func TestColumnLayout(t *testing.T) {
	u, v := binary.AppendUvarint, binary.AppendVarint
	flowKey := func(b []byte, f netsim.FlowKey) []byte {
		b = u(u(b, uint64(f.Src)), uint64(f.Dst))
		return u(u(u(b, uint64(f.SrcPort)), uint64(f.DstPort)), uint64(f.Proto))
	}
	cs := columnCulprits()
	want := u(nil, uint64(len(cs)))
	for _, c := range cs {
		want = flowKey(want, c.Flow)
		want = u(u(want, uint64(c.Priority)), c.Bytes)
		want = u(v(want, int64(c.Switch)), uint64(c.Host))
		want = v(v(want, int64(c.Overlap.Lo)), int64(c.Overlap.Hi))
	}
	if got, err := json.Marshal(cs); err != nil || string(got) != string(columnJSON(want)) {
		t.Fatalf("culprit column = %s, %v; want %s", got, err, columnJSON(want))
	}
	fs := columnFlows()
	want = u(nil, uint64(len(fs)))
	for _, f := range fs {
		want = u(flowKey(want, f.Flow), f.Bytes)
	}
	if got, err := json.Marshal(fs); err != nil || string(got) != string(columnJSON(want)) {
		t.Fatalf("flow column = %s, %v; want %s", got, err, columnJSON(want))
	}
}

// TestColumnsRoundTripInAReport: a WireReport carrying both columns
// marshals to the columns' strings under culprits and flows and decodes
// back to itself; empty columns are omitted.
func TestColumnsRoundTripInAReport(t *testing.T) {
	w := &WireReport{Kind: analyzer.KindPriorityContention, Culprits: columnCulprits(), Flows: columnFlows()}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"culprits", "flows"} {
		if f := fields[key]; len(f) == 0 || f[0] != '"' {
			t.Fatalf("%s = %s, want a string", key, f)
		}
	}
	var back WireReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, w) {
		t.Fatalf("round trip: got %+v, want %+v", back, *w)
	}
	empty, err := json.Marshal(&WireReport{Kind: analyzer.KindTopK})
	if err != nil {
		t.Fatal(err)
	}
	if s := string(empty); strings.Contains(s, "culprits") || strings.Contains(s, "flows") {
		t.Fatalf("an empty report carries a column: %s", s)
	}
}

// TestColumnDecodeIsStrict: each malformed column is refused with an error
// naming the column, and the entry and field where there is one.
func TestColumnDecodeIsStrict(t *testing.T) {
	valid, err := json.Marshal(columnCulprits())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := base64.StdEncoding.DecodeString(strings.Trim(string(valid), `"`))
	if err != nil {
		t.Fatal(err)
	}
	overstated := append([]byte{100}, raw[1:]...)
	bigPort := binary.AppendUvarint([]byte{1, 1, 1}, 1<<16)
	for name, c := range map[string]struct {
		data string
		want string
	}{
		"JSON array":       {`[{"Bytes":1}]`, "culprits: a JSON array"},
		"JSON object":      {`{}`, "culprits: want the column's base64 string"},
		"number":           {`7`, "culprits: want the column's base64 string"},
		"bad base64":       {`"!!!!"`, "culprits: illegal base64"},
		"escaped string":   {`"\u0041A=="`, "culprits: illegal base64"},
		"no count":         {`""`, "culprits: no entry count"},
		"overstated count": {string(columnJSON(overstated)), "culprits: 100 entries declared"},
		"truncated":        {string(columnJSON(raw[:len(raw)-1])), "culprits[1].overlap.hi: truncated"},
		"trailing byte":    {string(columnJSON(append(raw, 0))), "culprits: 1 trailing bytes"},
		"trailing empty":   {string(columnJSON([]byte{0, 0})), "culprits: 1 trailing bytes"},
		"port overflow":    {string(columnJSON(append(bigPort, make([]byte, 8)...))), "culprits[0].flow.src_port: 65536 overflows"},
	} {
		var col CulpritColumn
		err := json.Unmarshal([]byte(c.data), &col)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error containing %q", name, err, c.want)
		}
	}
	var flows FlowColumn
	if err := flows.UnmarshalJSON(columnJSON([]byte{1, 1, 1, 1, 1, 1, 0x80})); err == nil || !strings.Contains(err.Error(), "flows[0].bytes: truncated") {
		t.Errorf("truncated flow column: %v", err)
	}
	var w WireReport
	if err := json.Unmarshal([]byte(`{"flows":[{"Bytes":1}]}`), &w); err == nil || !strings.Contains(err.Error(), "flows: a JSON array") {
		t.Errorf("a report with a JSON array of flows: %v", err)
	}
	if err := json.Unmarshal([]byte(`{"culprits":null}`), &w); err != nil || w.Culprits != nil {
		t.Errorf("null culprits: %v, %v", w.Culprits, err)
	}
}

// FuzzReportColumns: arbitrary bytes where a report column belongs decode
// to a column or an error — no panic, no allocation out of proportion to the
// input — and whatever decodes survives encode/decode unchanged. The
// committed corpus (testdata/fuzz) holds valid columns of each kind, a
// truncated one, an overstated count, a trailing byte and a JSON array.
func FuzzReportColumns(f *testing.F) {
	for _, col := range []any{columnCulprits(), columnFlows(), CulpritColumn(nil)} {
		raw, err := json.Marshal(col)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzColumn[CulpritColumn](t, data)
		fuzzColumn[FlowColumn](t, data)
	})
}

// fuzzColumn decodes data as a column of type C, bounds what the decode
// allocated by the input, and checks decode(encode(x)) = x.
func fuzzColumn[C ~[]E, E any, P interface {
	*C
	json.Unmarshaler
}](t *testing.T, data []byte) {
	var col C
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := P(&col).UnmarshalJSON(data)
	runtime.ReadMemStats(&after)
	// An entry is at most 56 B in memory for at least 6 bytes of base64; the
	// constant covers the scratch pool's first buffer and an error.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16+16*uint64(len(data)) {
		t.Fatalf("decoding %d bytes as %T allocated %d", len(data), col, grew)
	}
	if err != nil {
		return
	}
	enc, err := json.Marshal(col)
	if err != nil {
		t.Fatal(err)
	}
	var back C
	if err := P(&back).UnmarshalJSON(enc); err != nil {
		t.Fatalf("the encode of a decoded %T does not decode: %v", col, err)
	}
	if !reflect.DeepEqual(back, col) {
		t.Fatalf("round trip changed the %T:\n got %+v\nwant %+v", col, back, col)
	}
}
