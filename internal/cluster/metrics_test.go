package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	"switchpointer/internal/metrics"
	"switchpointer/internal/scenario"
)

// scrapeMetrics GETs url/metrics and returns the parsed families plus the
// raw body.
func scrapeMetrics(t *testing.T, base string) ([]metrics.Family, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("content type %q, want %q", ct, metrics.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parse %s/metrics: %v\n%s", base, err, raw)
	}
	return fams, raw
}

// famByName indexes parsed families.
func famByName(fams []metrics.Family) map[string]metrics.Family {
	idx := make(map[string]metrics.Family, len(fams))
	for _, f := range fams {
		idx[f.Name] = f
	}
	return idx
}

// sumFamily totals a family's samples (ignoring histogram series).
func sumFamily(f metrics.Family) float64 {
	var sum float64
	for _, s := range f.Samples {
		if s.Name == f.Name {
			sum += s.Value
		}
	}
	return sum
}

func requireFamilies(t *testing.T, role string, idx map[string]metrics.Family, names ...string) {
	t.Helper()
	for _, n := range names {
		if _, ok := idx[n]; !ok {
			t.Errorf("%s /metrics missing family %s", role, n)
		}
	}
}

// TestMetricsEndpoints is the tentpole acceptance gate for the
// observability plane: after one diagnosis through the loopback trio, every
// role serves a parseable Prometheus /metrics covering its required metric
// families with values consistent with the work that just happened, and the
// host scrape — all frozen virtual-time metrics — renders byte-identically
// across repeated scrapes.
func TestMetricsEndpoints(t *testing.T) {
	s, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Testbed.Close()
	q, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}

	// The replayed host registry holds only frozen virtual-time state, so
	// its rendered shape is exact.
	raw := hostRegistry(s.Testbed, nil).Render()
	fams, err := metrics.ParseText(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, f := range fams {
		samples += len(f.Samples)
	}
	if len(fams) != 20 || samples != 105 || len(raw) != 7904 {
		t.Errorf("replayed host registry: %d families, %d samples, %d bytes; want 20, 105, 7904",
			len(fams), samples, len(raw))
	}

	lb, err := NewLoopback(s.Testbed, AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	if _, err := lb.Admission.Run(context.Background(), q); err != nil {
		t.Fatalf("diagnosis: %v", err)
	}

	// Host role.
	hostFams, hostRaw := scrapeMetrics(t, lb.HostURL)
	hostIdx := famByName(hostFams)
	requireFamilies(t, "host", hostIdx,
		"spd_store_resident_records", "spd_store_evicted_records_total",
		"spd_store_lock_acquires_total", "spd_store_lock_contended_total",
		"spd_absorbed_packets_total", "spd_decode_errors_total",
		"spd_cold_segments_decoded_total", "spd_coldlog_segment_writes_total",
		"spd_statesync_bootstrap_segments_total", "spd_ready")
	if got := sumFamily(hostIdx["spd_absorbed_packets_total"]); got <= 0 {
		t.Errorf("spd_absorbed_packets_total = %v, want > 0 after replay", got)
	}
	if got := sumFamily(hostIdx["spd_store_resident_records"]); got <= 0 {
		t.Errorf("spd_store_resident_records = %v, want > 0 after replay", got)
	}
	if got := sumFamily(hostIdx["spd_ready"]); got != 1 {
		t.Errorf("host spd_ready = %v, want 1", got)
	}
	if got := sumFamily(hostIdx["spd_store_lock_acquires_total"]); got <= 0 {
		t.Errorf("spd_store_lock_acquires_total = %v, want > 0 after replay", got)
	}

	// Determinism: the host registry carries only frozen virtual-time
	// metrics, so a second scrape must be byte-identical.
	_, hostRaw2 := scrapeMetrics(t, lb.HostURL)
	if !bytes.Equal(hostRaw, hostRaw2) {
		t.Error("host /metrics not byte-identical across scrapes")
	}

	// Switch role.
	switchFams, _ := scrapeMetrics(t, lb.SwitchURL)
	switchIdx := famByName(switchFams)
	requireFamilies(t, "switch", switchIdx,
		"spd_pointer_pulls_total",
		"spd_pointer_resident_bytes", "spd_switch_memory_bytes",
		"spd_pointer_pushed_slots_total", "spd_control_store_slots", "spd_ready")
	if got := sumFamily(switchIdx["spd_pointer_pulls_total"]); got <= 0 {
		t.Errorf("spd_pointer_pulls_total = %v, want > 0 after a diagnosis", got)
	}
	if got := sumFamily(switchIdx["spd_pointer_resident_bytes"]); got <= 0 {
		t.Errorf("spd_pointer_resident_bytes = %v, want > 0", got)
	}

	// Analyzer role.
	anFams, _ := scrapeMetrics(t, lb.AnalyzerURL)
	anIdx := famByName(anFams)
	requireFamilies(t, "analyzer", anIdx,
		"spd_admission_in_flight", "spd_admission_queued",
		"spd_admission_admitted_total", "spd_admission_rejected_total",
		"spd_admission_queue_depth", "spd_diagnosis_total",
		"spd_diagnosis_virtual_seconds", "spd_ready")
	if got := sumFamily(anIdx["spd_admission_admitted_total"]); got != 1 {
		t.Errorf("spd_admission_admitted_total = %v, want 1", got)
	}
	diag := anIdx["spd_diagnosis_total"]
	found := false
	for _, smp := range diag.Samples {
		for _, l := range smp.Labels {
			if l[0] == "kind" && l[1] == "red-lights" && smp.Value == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("spd_diagnosis_total{kind=\"red-lights\"} != 1: %+v", diag.Samples)
	}
	// The virtual-cost histogram observed exactly one diagnosis.
	var virtCount float64
	for _, smp := range anIdx["spd_diagnosis_virtual_seconds"].Samples {
		if smp.Name == "spd_diagnosis_virtual_seconds_count" {
			virtCount += smp.Value
		}
	}
	if virtCount != 1 {
		t.Errorf("spd_diagnosis_virtual_seconds count = %v, want 1", virtCount)
	}
}
