package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"switchpointer/internal/analyzer"
)

// TestCulpritsCrossTheWireOnce: a /diagnose report carries each culprit once,
// in the culprit column. WireReport has exactly one field of culprits, a
// priority diagnosis with many culprits marshals to that column plus a few
// KiB of accounting — not to the list twice over — and each culprit costs
// the /diagnose body at most 40 bytes (≈ 34 measured; ≈ 170 as a JSON
// object).
func TestCulpritsCrossTheWireOnce(t *testing.T) {
	culprit := reflect.TypeOf(analyzer.Culprit{})
	var culpritFields []string
	typ := reflect.TypeOf(WireReport{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type == culprit || f.Type.Kind() == reflect.Slice && f.Type.Elem() == culprit {
			culpritFields = append(culpritFields, f.Name)
		}
	}
	if len(culpritFields) != 1 {
		t.Fatalf("WireReport fields carrying culprits: %v (want exactly one)", culpritFields)
	}

	const m, perCulprit, overhead = 48, 40, 4 << 10
	s, err := BuildScenarioOpt("priority", m, 0, denseOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Testbed.Close)
	q, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLoopback(s.Testbed, AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	env, err := Envelope(q)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(lb.AnalyzerURL+"/diagnose", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/diagnose: status %d, %v", resp.StatusCode, err)
	}
	var dr DiagnoseResponse
	if err := json.Unmarshal(body, &dr); err != nil || dr.Report == nil {
		t.Fatalf("/diagnose body: %v", err)
	}
	w := dr.Report
	n := len(w.Culprits)
	if n < m/2 {
		t.Fatalf("fixture too small: %d culprits", n)
	}
	culprits, err := json.Marshal(w.Culprits)
	if err != nil {
		t.Fatal(err)
	}
	report, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	// The accounting beyond the list must be smaller than the list, or a
	// second copy of it would not show.
	if over := len(report) - len(culprits); over > overhead || over >= len(culprits) {
		t.Fatalf("report is %d B, its %d culprits %d B: %d B beyond the culprit list (want ≤ %d B and less than the list)",
			len(report), n, len(culprits), over, overhead)
	}
	bare := *w
	bare.Culprits = nil
	without, err := json.Marshal(DiagnoseResponse{Report: &bare})
	if err != nil {
		t.Fatal(err)
	}
	if per := float64(len(body)-len(without)-1) / float64(n); per > perCulprit {
		t.Fatalf("/diagnose body is %d B, %d B without its %d culprits: %.1f B a culprit, want ≤ %d",
			len(body), len(without)+1, n, per, perCulprit)
	} else {
		t.Logf("/diagnose body %d B, %d culprits, %.1f B a culprit", len(body), n, per)
	}
}
