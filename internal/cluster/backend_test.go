package cluster

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/pointer"
	"switchpointer/internal/scenario"
	"switchpointer/internal/statesync"
)

var backendCases = []struct {
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

// verdictJSON canonicalizes the decision content of a report — outcome kind
// plus every answer field — while excluding the search-radius accounting
// (Consulted, HostsContacted, Conclusion, Clock), which legitimately grows
// under a sketch backend's false-positive fan-out.
func verdictJSON(t *testing.T, rep *analyzer.Report) string {
	t.Helper()
	w := WireFromReport(rep)
	b, err := json.Marshal(map[string]any{
		"kind":      w.Kind,
		"culprits":  w.Culprits,
		"perswitch": rep.PerSwitch,
		"cascade":   rep.Cascade,
		"flows":     rep.Flows,
		"links":     rep.Links,
		"separated": rep.Separated,
		"boundary":  rep.Boundary,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBootstrapCrossBackendEquivalence is satellite 4's statesync gate: a
// dense-backend daemon's snapshots bootstrap an adaptive-backend twin (the
// V2 wire's exact payloads restore across backends), and the twin serves a
// wire-form report byte-identical to the source's in-memory run for every
// query kind.
func TestBootstrapCrossBackendEquivalence(t *testing.T) {
	for _, tc := range backendCases {
		t.Run(tc.scenario, func(t *testing.T) {
			src, err := BuildScenarioOpt(tc.scenario, tc.m, tc.n, scenario.Options{PointerBackend: pointer.BackendDense})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Testbed.Close()
			q, err := src.Query()
			if err != nil {
				t.Fatal(err)
			}
			local, err := src.Testbed.Analyzer.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("in-memory run: %v", err)
			}
			localWire := wireJSON(t, WireFromReport(local))

			hostSrv := httptest.NewServer(HostMux(src.Testbed, nil))
			defer hostSrv.Close()
			switchSrv := httptest.NewServer(SwitchMux(src.Testbed, nil))
			defer switchSrv.Close()

			dst, err := BuildScenarioOpt(tc.scenario, tc.m, tc.n, scenario.Options{PointerBackend: pointer.BackendAdaptive})
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Testbed.Close()
			b := &statesync.Bootstrapper{}
			if _, _, err := BootstrapHosts(context.Background(), b, hostSrv.URL, dst.Testbed); err != nil {
				t.Fatal(err)
			}
			if err := BootstrapSwitches(context.Background(), b, switchSrv.URL, dst.Testbed); err != nil {
				t.Fatal(err)
			}

			dstHostSrv := httptest.NewServer(HostMux(dst.Testbed, nil))
			defer dstHostSrv.Close()
			dstSwitchSrv := httptest.NewServer(SwitchMux(dst.Testbed, nil))
			defer dstSwitchSrv.Close()
			a, err := NewRemoteAnalyzer(dst.Testbed,
				HostURLs(dstHostSrv.URL, dst.Testbed),
				SwitchURLs(dstSwitchSrv.URL, dst.Testbed), nil)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := a.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("cross-backend bootstrapped run: %v", err)
			}
			if got := wireJSON(t, WireFromReport(remote)); got != localWire {
				t.Fatalf("dense→adaptive bootstrap diverged\n--- dense in-memory ---\n%s\n--- adaptive bootstrapped ---\n%s", localWire, got)
			}
		})
	}
}

// TestBloomDiagnosisCulpritEquivalence is the sketch acceptance gate: with
// a deliberately undersized per-slot filter (64 bits — dense with false
// positives at these testbed sizes), every query kind still reaches the
// exact backend's verdict — same kind, culprits, cascade chain, link
// distributions, and top-k flows — because a false-positive host simply
// answers an empty round. The extra fan-out must be visible: never a
// cheaper clock than the exact run, and strictly more hosts contacted
// somewhere across the suite.
func TestBloomDiagnosisCulpritEquivalence(t *testing.T) {
	extraHosts, extraClock := 0, int64(0)
	for _, tc := range backendCases {
		t.Run(tc.scenario, func(t *testing.T) {
			base, err := BuildScenarioOpt(tc.scenario, tc.m, tc.n, scenario.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer base.Testbed.Close()
			q, err := base.Query()
			if err != nil {
				t.Fatal(err)
			}
			baseRep, err := base.Testbed.Analyzer.Run(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}

			bloom, err := BuildScenarioOpt(tc.scenario, tc.m, tc.n, scenario.Options{
				PointerBackend:     pointer.BackendBloom,
				PointerBloomBits:   64,
				PointerBloomHashes: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer bloom.Testbed.Close()
			q2, err := bloom.Query()
			if err != nil {
				t.Fatal(err)
			}
			bloomRep, err := bloom.Testbed.Analyzer.Run(context.Background(), q2)
			if err != nil {
				t.Fatal(err)
			}

			want, got := verdictJSON(t, baseRep), verdictJSON(t, bloomRep)
			if want != got {
				t.Fatalf("bloom verdict diverged\n--- exact ---\n%s\n--- bloom ---\n%s", want, got)
			}
			if bloomRep.HostsContacted < baseRep.HostsContacted {
				t.Fatalf("bloom candidates (%d hosts) below the exact superset floor (%d)",
					bloomRep.HostsContacted, baseRep.HostsContacted)
			}
			if bloomRep.Clock.Total() < baseRep.Clock.Total() {
				t.Fatalf("bloom run cheaper than exact (%v < %v): false-positive rounds uncharged",
					bloomRep.Clock.Total(), baseRep.Clock.Total())
			}
			extraHosts += bloomRep.HostsContacted - baseRep.HostsContacted
			extraClock += int64(bloomRep.Clock.Total() - baseRep.Clock.Total())
		})
	}
	if extraHosts == 0 {
		t.Fatalf("no scenario produced false-positive fan-out — 64-bit filters should collide; the gate is vacuous")
	}
	if extraClock <= 0 {
		t.Fatalf("false-positive rounds (%d extra hosts) added no clock cost", extraHosts)
	}
}
