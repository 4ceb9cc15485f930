package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"switchpointer/internal/cluster"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesTables: BENCHMARK.json declares exactly the workloads
// and metrics the program prints, with the same units, directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, program %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound):
				t.Errorf("%s: bound differs from the program's %v", d.Name, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", d.Name)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
	if want := []string{"go", "run", "./benchmark"}; strings.Join(m.Command, " ") != strings.Join(want, " ") {
		t.Errorf("command %v, want %v", m.Command, want)
	}
}

// smoke runs one workload briefly in one mode and checks the contract of
// its output: every declared metric printed exactly once with its unit, no
// failed operation, and a last line that parses into the same values.
func smoke(t *testing.T, workload string, trace bool) (map[string]float64, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := config{workload: workload, seed: 1, seconds: 0.3, trace: trace, rounds: 3,
		traceOut: filepath.Join(dir, "trace.json"), scratch: dir, quick: true, setups: 1}
	var out bytes.Buffer
	res, err := runWorkload(cfg, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", workload, trace, err, out.String())
	}
	if !res.correct() {
		t.Fatalf("%s trace=%v: %d of %d operations failed: %v", workload, trace, res.Failed, res.Attempted, res.Err)
	}
	for _, d := range res.defs() {
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.Name) + `\s+\S+ ` + regexp.QuoteMeta(d.Unit) + `$`)
		if n := len(line.FindAllString(out.String(), -1)); n != 1 {
			t.Errorf("%s trace=%v: metric %s [%s] printed %d times, want once", workload, trace, d.Name, d.Unit, n)
		}
	}
	wire := res.wire()
	if len(wire.Metrics) != len(res.defs()) {
		t.Errorf("%s trace=%v: the result line carries %d metrics, want %d", workload, trace, len(wire.Metrics), len(res.defs()))
	}
	if leftover, _ := filepath.Glob(filepath.Join(dir, "diag-heavy-*")); len(leftover) > 0 {
		t.Errorf("%s: left %v behind", workload, leftover)
	}
	return res.Metrics, cfg.traceOut
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			m, _ := smoke(t, w.name, false)
			for _, d := range endToEnd {
				if m[d.Name] <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never 0", d.Name, m[d.Name])
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	// The counts every seed and every machine must reproduce.
	exact := map[string]map[string]float64{
		"sim-replay": {
			"eventq.events_per_op":           538_982,
			"netsim.pkts_per_op":             102_677,
			"switchagent.stage_calls_per_op": 205_354,
		},
		// 8 sweeps of 8 pointer rounds and 16 host rounds.
		"diag-inmem":  {"analyzer.dir_rounds_per_op": 64, "analyzer.host_rounds_per_op": 128},
		"diag-fanout": {"rpc.requests_per_op": 97, "analyzer.hosts_contacted_per_op": 96, "rpc.conns_opened_per_kop": 0},
		// 1 pointer round of 2 pulls, the victim's priority probe, 8 hosts.
		"diag-heavy": {"rpc.requests_per_op": 11, "statesync.segments_decoded_per_op": 24, "statesync.segments_skipped_per_op": 8},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			m, dump := smoke(t, w.name, true)
			for name, want := range exact[w.name] {
				if m[name] != want {
					t.Errorf("%s = %v, want exactly %v", name, m[name], want)
				}
			}
			checkSpanTree(t, dump)
		})
	}
}

// checkSpanTree: in the dump, span IDs are unique, every parent exists in
// the same operation, exactly one span per operation has no parent, and
// every agent-side HTTP span hangs under an rpc.roundtrip of its operation.
func checkSpanTree(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) == 0 {
		t.Fatal("the trace dump holds no spans")
	}
	byID := make(map[uint64]span, len(dump.Spans))
	roots := make(map[uint64]int)
	for _, s := range dump.Spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("span %d recorded twice", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range dump.Spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots[s.Op]++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op {
			t.Fatalf("span %d (%s) has no parent %d in operation %d", s.ID, s.Name, s.Parent, s.Op)
		}
		if (s.Name == "hostagent.http" || s.Name == "switchagent.http") && p.Name != "rpc.roundtrip" {
			t.Errorf("%s span %d hangs under %s, want rpc.roundtrip", s.Name, s.ID, p.Name)
		}
	}
	for op, n := range roots {
		if n != 1 {
			t.Errorf("operation %d has %d root spans", op, n)
		}
	}
}

// TestOracleCatchesCorruption: a report that differs from the in-memory
// oracle in one field is a failed operation, and so is a replay whose
// counts differ.
func TestOracleCatchesCorruption(t *testing.T) {
	p := params{seed: 1, scratch: t.TempDir(), quick: true}
	inst, err := setupDiagFanout(p)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	res, err := inst.op(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.check(res); err != nil {
		t.Fatalf("the untouched report fails the oracle: %v", err)
	}
	rep := res.(*cluster.WireReport)
	rep.Flows[0].Bytes++
	if inst.check(rep) == nil {
		t.Fatal("a report with one altered byte count passed the oracle")
	}

	sim, err := setupSimReplay(p)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.close()
	res, err = sim.op(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(replay)
	r.s.Testbed.Alerts = r.s.Testbed.Alerts[1:]
	if sim.check(r) == nil {
		t.Fatal("a replay that lost an alert passed the oracle")
	}
}

// TestCompareVerdicts covers -compare's four verdicts and its exit code.
func TestCompareVerdicts(t *testing.T) {
	lat := endToEnd[0]
	for _, tc := range []struct {
		worse, spread float64
		want          string
	}{
		{lat.Bound*100 + 1, 0, "worse"},
		{-lat.Bound*100 - 1, 0, "better"},
		{1, 0, "same"},
		{1, lat.Bound*100 + 1, "unresolved"},
		{lat.Bound*100 + 1, lat.Bound*100 + 1, "worse"},
	} {
		if got := verdict(lat, tc.worse, tc.spread); got != tc.want {
			t.Errorf("verdict(%+.1f%% worse, spread %.1f%%) = %s, want %s", tc.worse, tc.spread, got, tc.want)
		}
	}

	run := func(p50 float64, failed int) *fullResults {
		r := &fullResults{Workloads: make(map[string]workloadOut)}
		for _, w := range workloads {
			e2e := wireResult{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: make(map[string]wireMetric)}
			for _, d := range endToEnd {
				e2e.Metrics[d.Name] = wireMetric{Value: 10, Unit: d.Unit}
			}
			e2e.Metrics["latency_p50_ms"] = wireMetric{Value: p50, Unit: "ms"}
			r.Workloads[w.name] = workloadOut{EndToEnd: e2e}
		}
		return r
	}
	var out bytes.Buffer
	if code := compareResults(run(10, 0), run(10.1, 0), &out); code != 0 {
		t.Errorf("a 1%% slower run exits %d, want 0\n%s", code, out.String())
	}
	if code := compareResults(run(10, 0), run(13, 0), &out); code != 1 {
		t.Errorf("a 30%% slower run exits %d, want 1", code)
	}
	if code := compareResults(run(10, 0), run(10, 1), &out); code != 1 {
		t.Errorf("a run with a failed operation exits %d, want 1", code)
	}
}
