package cluster

import (
	"context"
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

// TestLoopbackEquivalenceAllKinds is the tentpole acceptance gate: for every
// query kind, a diagnosis run entirely over loopback HTTP — pointer pulls
// and MPH distribution through RemoteDirectory, every per-host round through
// RemoteHosts, submitted through the admission-controlled /diagnose service
// — must produce a Report byte-identical (in wire form) to the in-memory
// run on the same testbed.
func TestLoopbackEquivalenceAllKinds(t *testing.T) {
	cases := []struct {
		scenario string
		m, n     int
	}{
		{"priority", 4, 0},      // ContentionQuery → priority-contention
		{"microburst", 4, 0},    // ContentionQuery → microburst-contention
		{"redlights", 0, 0},     // RedLightsQuery
		{"cascade", 0, 0},       // CascadeQuery
		{"loadimbalance", 0, 8}, // ImbalanceQuery
		{"topk", 0, 8},          // TopKQuery
	}
	for _, tc := range cases {
		t.Run(tc.scenario, func(t *testing.T) {
			s, err := BuildScenarioOpt(tc.scenario, tc.m, tc.n, scenario.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Testbed.Close()
			q, err := s.Query()
			if err != nil {
				t.Fatal(err)
			}

			local, err := s.Testbed.Analyzer.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("in-memory run: %v", err)
			}
			if local.Kind == analyzer.KindInconclusive && tc.scenario != "topk" {
				t.Fatalf("in-memory run inconclusive: %s", local.Conclusion)
			}
			localWire := wireJSON(t, WireFromReport(local))

			lb, err := NewLoopback(s.Testbed, AdmissionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer lb.Close()

			// (1) The remote-backend analyzer in-process: every backend call
			// travels HTTP.
			remote, err := lb.Analyzer.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("remote-backend run: %v", err)
			}
			if got := wireJSON(t, WireFromReport(remote)); got != localWire {
				t.Fatalf("remote-backend report diverged\n--- in-memory ---\n%s\n--- remote ---\n%s", localWire, got)
			}

			// (2) The full service path: envelope → POST /diagnose →
			// admission → remote analyzer → wire report.
			env, err := Envelope(q)
			if err != nil {
				t.Fatal(err)
			}
			served, err := lb.Client.Diagnose(context.Background(), env)
			if err != nil {
				t.Fatalf("/diagnose: %v", err)
			}
			if got := wireJSON(t, served); got != localWire {
				t.Fatalf("/diagnose report diverged\n--- in-memory ---\n%s\n--- served ---\n%s", localWire, got)
			}

			stats, err := lb.Client.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if stats.Admitted != 1 || stats.InFlight != 0 {
				t.Fatalf("admission stats after one query: %+v", stats)
			}
		})
	}
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
