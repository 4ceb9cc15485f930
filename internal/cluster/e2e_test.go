package cluster

import (
	"encoding/json"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
)

func window(lo, hi simtime.Epoch) simtime.EpochRange {
	return simtime.EpochRange{Lo: lo, Hi: hi}
}

// wireJSON canonicalizes a report for byte-level comparison.
func wireJSON(t *testing.T, w *WireReport) string {
	t.Helper()
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestEnvelopeRoundTrip pins Query ⇄ QueryEnvelope for every kind.
func TestEnvelopeRoundTrip(t *testing.T) {
	s, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Testbed.Close()
	alert, err := s.Alert()
	if err != nil {
		t.Fatal(err)
	}
	queries := []analyzer.Query{
		analyzer.ContentionQuery{Alert: alert},
		analyzer.RedLightsQuery{Alert: alert},
		analyzer.CascadeQuery{Alert: alert},
		analyzer.ImbalanceQuery{Switch: 3, Window: window(2, 11), At: 42},
		analyzer.TopKQuery{Switch: 3, K: 7, Window: window(0, 5), Mode: analyzer.ModePathDump, At: 17},
	}
	for _, q := range queries {
		env, err := Envelope(q)
		if err != nil {
			t.Fatalf("%T: %v", q, err)
		}
		raw, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		var back QueryEnvelope
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Query()
		if err != nil {
			t.Fatalf("%T: %v", q, err)
		}
		gotJSON, _ := json.Marshal(mustEnvelope(t, got))
		if string(gotJSON) != string(raw) {
			t.Fatalf("%T round trip diverged:\n%s\n%s", q, raw, gotJSON)
		}
		if got.Name() != q.Name() {
			t.Fatalf("kind changed: %s → %s", q.Name(), got.Name())
		}
	}
	if _, err := (QueryEnvelope{Kind: "nope"}).Query(); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := (QueryEnvelope{Kind: "cascade"}).Query(); err == nil {
		t.Fatal("cascade without alert accepted")
	}
}

func mustEnvelope(t *testing.T, q analyzer.Query) QueryEnvelope {
	t.Helper()
	env, err := Envelope(q)
	if err != nil {
		t.Fatal(err)
	}
	return env
}
