package metrics

import (
	"bytes"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildFixed populates a registry with one family of every kind, with
// label tuples inserted in the given order — the golden fixture.
func buildFixed(order []string) *Registry {
	r := NewRegistry()
	c := r.Counter("sp_requests_total", "Requests served.", "role", "code")
	g := r.Gauge("sp_resident_records", "Records resident in the store.", "host")
	h := r.Histogram("sp_wait_seconds", "Queue wait.", []float64{0.01, 0.1, 1}, "class")
	r.GaugeFunc("sp_collected", "Scrape-time samples.", []string{"shard"}, func(emit Emit) {
		// Deliberately emitted in reverse order: rendering must sort.
		emit(3, "b")
		emit(2, "a")
	})
	r.Counter("sp_empty_total", "A family with no samples yet.")
	for _, who := range order {
		switch who {
		case "host-a":
			c.With("host", "200").Add(12)
			g.With("10.0.0.1").Set(41)
		case "host-b":
			c.With("host", "500").Inc()
			g.With("10.0.0.2").Set(7)
		case "analyzer":
			c.With("analyzer", "200").Add(3)
			h.With("urgent").Observe(0.004)
			h.With("urgent").Observe(0.25)
			h.With("alert").Observe(2)
		}
	}
	return r
}

func TestGoldenRendering(t *testing.T) {
	got := buildFixed([]string{"host-a", "host-b", "analyzer"}).Render()
	golden := filepath.Join("testdata", "golden.prom")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("rendering diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

func TestRenderingDeterministic(t *testing.T) {
	// Repeated scrapes of unchanged state are byte-identical.
	r := buildFixed([]string{"host-a", "host-b", "analyzer"})
	first := r.Render()
	for i := 0; i < 10; i++ {
		if got := r.Render(); !bytes.Equal(got, first) {
			t.Fatalf("scrape %d differs from first scrape", i)
		}
	}
	// Insert order (and therefore child-map layout) must not matter.
	other := buildFixed([]string{"analyzer", "host-b", "host-a"}).Render()
	if !bytes.Equal(other, first) {
		t.Errorf("insert order changed rendering:\n--- reordered ---\n%s\n--- original ---\n%s", other, first)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("sp_esc", `has \ and
newline`, "path").With(`a"b\c` + "\nd").Set(1)
	out := string(r.Render())
	if !strings.Contains(out, `# HELP sp_esc has \\ and\nnewline`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `sp_esc{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	fams, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse back: %v", err)
	}
	var got string
	for _, f := range fams {
		for _, s := range f.Samples {
			for _, kv := range s.Labels {
				if kv[0] == "path" {
					got = kv[1]
				}
			}
		}
	}
	if want := `a"b\c` + "\nd"; got != want {
		t.Errorf("round-trip label value = %q, want %q", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sp_h", "h", []float64{1, 2, 5}).With()
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	out := string(r.Render())
	for _, want := range []string{
		`sp_h_bucket{le="1"} 2`, // 0.5 and 1 (le inclusive)
		`sp_h_bucket{le="2"} 4`,
		`sp_h_bucket{le="5"} 5`,
		`sp_h_bucket{le="+Inf"} 6`,
		`sp_h_sum 18`,
		`sp_h_count 6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCounterGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sp_c_total", "c").With()
	c.Add(2.5)
	c.Inc()
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative counter Add did not panic")
			}
		}()
		c.Add(-1)
	}()
	g := r.Gauge("sp_g", "g").With()
	g.Set(10)
	g.Add(-1)
	g.Add(-2.5)
	if got := g.Value(); got != 6.5 {
		t.Errorf("gauge = %v, want 6.5", got)
	}
	// Idempotent re-registration returns the same cells.
	if got := r.Counter("sp_c_total", "c").With().Value(); got != 3.5 {
		t.Errorf("re-registered counter = %v, want 3.5", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind-conflicting re-registration did not panic")
			}
		}()
		r.Gauge("sp_c_total", "c")
	}()
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("sp_x_total", "x").With().Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != ContentType {
		t.Errorf("Content-Type = %q, want %q", got, ContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sp_x_total 1") {
		t.Errorf("body missing sample:\n%s", buf.String())
	}
}

func TestParseTextErrors(t *testing.T) {
	for _, bad := range []string{
		"sp_x{le=unquoted} 1",
		"sp_x 1.2.3",
		`sp_x{a="b} 1`,
		"0bad_name 1",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted malformed input", bad)
		}
	}
	fams, err := ParseText(strings.NewReader("# HELP sp_h help text\n# TYPE sp_h histogram\nsp_h_bucket{le=\"+Inf\"} 3\nsp_h_sum 4.5\nsp_h_count 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || fams[0].Name != "sp_h" || len(fams[0].Samples) != 3 {
		t.Errorf("histogram series did not attach to base family: %+v", fams)
	}
	if fams[0].Samples[0].Value != 3 || fams[0].Samples[0].Name != "sp_h_bucket" {
		t.Errorf("bucket sample = %+v", fams[0].Samples[0])
	}
}

func TestValueFormatting(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("sp_v", "v", "k")
	g.With("inf").Set(math.Inf(1))
	g.With("int").Set(1500000)
	g.With("frac").Set(0.001)
	out := string(r.Render())
	for _, want := range []string{
		`sp_v{k="frac"} 0.001`,
		`sp_v{k="inf"} +Inf`,
		`sp_v{k="int"} 1.5e+06`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
