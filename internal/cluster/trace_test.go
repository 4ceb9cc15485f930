package cluster

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/trace"
)

// goldenTraceJSON renders the merged trace exactly the way `spctl -trace
// -json` does, so the committed golden gates both this test and the
// verify.sh trio smoke.
func goldenTraceJSON(t *testing.T, merged trace.Trace) []byte {
	t.Helper()
	data, err := json.MarshalIndent(merged.Canonical(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// mergedFlightTrace collects one trace ID's per-role views from a loopback
// plane's three flight recorders and merges them.
func mergedFlightTrace(lb *Loopback, id string) trace.Trace {
	var views []trace.Trace
	for _, fr := range []*trace.FlightRecorder{lb.AnalyzerFlight, lb.HostFlight, lb.SwitchFlight} {
		if v, ok := fr.Get(id); ok {
			views = append(views, v)
		}
	}
	return MergeTraces(id, views...)
}

// TestRedLightsTraceGolden is the tentpole's determinism gate: the red-lights
// diagnosis, run through the full loopback service plane (alert pipeline →
// admission → remote-backend analyzer → host/switch daemons), must produce a
// merged trace byte-identical to the committed golden — and byte-identical
// again when the whole diagnosis is repeated.
func TestRedLightsTraceGolden(t *testing.T) {
	s, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Testbed.Close()
	lb, err := NewLoopback(s.Testbed, AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	// The alert rides the pipeline first, exactly as the spd trio's
	// -alert-pipeline path does. The redlights trigger is a throughput-drop,
	// so the pipeline's verdict span lands under the contention-query trace
	// the forwarded alert would start — a separate trace from the explicit
	// red-lights query below, same as in a live trio.
	alert, err := s.Alert()
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewAlertPipeline(PipelineConfig{DedupWindow: simtime.Time(time.Second)}, nil)
	pipe.Flight = lb.AnalyzerFlight
	if !pipe.Offer(alert) {
		t.Fatal("pipeline suppressed the trigger alert")
	}
	pipeID := analyzer.TraceID(analyzer.ContentionQuery{Alert: alert})
	if pt, ok := lb.AnalyzerFlight.Get(pipeID); !ok || len(pt.Spans) == 0 || pt.Spans[0].ID != "pipe:forwarded" {
		t.Fatalf("pipeline verdict span missing from trace %s: %+v", pipeID, pt.Spans)
	}

	q, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	env, err := Envelope(q)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lb.Client.Diagnose(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceID == "" {
		t.Fatal("wire report carries no trace ID")
	}

	merged := mergedFlightTrace(lb, rep.TraceID)
	roles := map[string]bool{}
	for _, sp := range merged.Spans {
		roles[sp.Role] = true
	}
	for _, want := range []string{"analyzer", "host", "switch"} {
		if !roles[want] {
			t.Fatalf("merged trace has no %s spans (roles %v, %d spans)", want, roles, len(merged.Spans))
		}
	}

	got := goldenTraceJSON(t, merged)
	golden := filepath.Join("testdata", "redlights_trace.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (UPDATE_GOLDEN=1 writes it)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("merged trace diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}

	// Repeating the identical diagnosis must leave the trace byte-identical:
	// every span is deterministic, and the recorders dedup by span ID.
	if _, err := lb.Client.Diagnose(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	again := goldenTraceJSON(t, mergedFlightTrace(lb, rep.TraceID))
	if string(again) != string(got) {
		t.Fatalf("repeated diagnosis changed the trace\n--- first ---\n%s\n--- second ---\n%s", got, again)
	}
}

// TestTracingOffLeavesReportIdentical: disabling tracing must not move a
// single virtual-time metric — the trace is an observer of the clock, never
// a participant. Byte-equality is checked on the wire form with the trace ID
// cleared (the only field tracing itself owns).
func TestTracingOffLeavesReportIdentical(t *testing.T) {
	s, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Testbed.Close()
	q, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}

	traced, err := s.Testbed.Analyzer.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if traced.TraceID == "" || traced.Trace == nil {
		t.Fatal("traced run carries no trace")
	}
	// Root plus one span per charged phase, the same every run.
	if n := len(traced.Trace.Spans); n != 5 {
		t.Fatalf("traced run has %d spans, want 5", n)
	}

	s.Testbed.Analyzer.DisableTracing = true
	defer func() { s.Testbed.Analyzer.DisableTracing = false }()
	untraced, err := s.Testbed.Analyzer.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if untraced.TraceID != "" || untraced.Trace != nil {
		t.Fatal("untraced run still carries a trace")
	}

	strip := func(w *WireReport) string {
		w.TraceID = ""
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	a, b := strip(WireFromReport(traced)), strip(WireFromReport(untraced))
	if a != b {
		t.Fatalf("tracing moved the report\n--- traced ---\n%s\n--- untraced ---\n%s", a, b)
	}
	if !strings.Contains(a, "total_virtual_ns") {
		t.Fatal("wire report lost its virtual-time accounting")
	}
}
