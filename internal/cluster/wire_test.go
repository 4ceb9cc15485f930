package cluster

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestCulpritsCrossTheWireOnce: a /diagnose report carries each culprit once.
// WireReport has exactly one field of culprits, and a priority diagnosis
// with many culprits marshals to its culprit list plus a few KiB of
// accounting — not to the list twice over.
func TestCulpritsCrossTheWireOnce(t *testing.T) {
	var culpritFields []string
	typ := reflect.TypeOf(WireReport{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); strings.Contains(f.Type.String(), "analyzer.Culprit") {
			culpritFields = append(culpritFields, f.Name)
		}
	}
	if len(culpritFields) != 1 {
		t.Fatalf("WireReport fields carrying culprits: %v (want exactly one)", culpritFields)
	}

	const m = 48
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
	w, err := lb.Client.Diagnose(context.Background(), env)
	if err != nil {
		t.Fatalf("/diagnose: %v", err)
	}
	report, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	culprits, err := json.Marshal(w.Culprits)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture must be large enough that a second copy would show.
	if len(w.Culprits) < m/2 || len(culprits) <= 4<<10 {
		t.Fatalf("fixture too small: %d culprits, %d B", len(w.Culprits), len(culprits))
	}
	if over := len(report) - len(culprits); over > 4<<10 {
		t.Fatalf("report is %d B, its %d culprits %d B: %d B beyond the culprit list (want ≤ 4 KiB)",
			len(report), len(w.Culprits), len(culprits), over)
	}
}
