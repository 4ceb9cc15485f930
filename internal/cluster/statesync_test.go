package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
)

// TestBootstrapEquivalenceAllKinds is the state-sync acceptance gate: for
// every query kind, a testbed that never replayed the scenario — its host
// stores pulled as snapshot segments and its switch pointer structures restored
// from snapshots, all over HTTP — must serve a wire-form report
// byte-identical to the in-memory run on the source testbed.
func TestBootstrapEquivalenceAllKinds(t *testing.T) {
	cases := []struct {
		scenario      string
		m, n          int
		segs, records int // absorbed over the wire: exact scenario properties
	}{
		{"priority", 4, 0, 20, 22},    // ContentionQuery → priority-contention
		{"microburst", 4, 0, 20, 22},  // ContentionQuery → microburst-contention
		{"redlights", 0, 0, 4, 4},     // RedLightsQuery
		{"cascade", 0, 0, 4, 4},       // CascadeQuery
		{"loadimbalance", 0, 8, 8, 8}, // ImbalanceQuery
		{"topk", 0, 8, 8, 8},          // TopKQuery
	}
	for _, tc := range cases {
		t.Run(tc.scenario, func(t *testing.T) {
			src, err := BuildScenarioOpt(tc.scenario, tc.m, tc.n, scenario.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Testbed.Close()
			q, err := src.Query() // plays the source to its horizon
			if err != nil {
				t.Fatal(err)
			}
			local, err := src.Testbed.Analyzer.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("in-memory run: %v", err)
			}
			localWire := wireJSON(t, WireFromReport(local))

			// Serve the live source and bootstrap a never-played twin.
			hostSrv := httptest.NewServer(HostMux(src.Testbed, nil))
			defer hostSrv.Close()
			switchSrv := httptest.NewServer(SwitchMux(src.Testbed, nil))
			defer switchSrv.Close()

			dst, err := BuildScenarioOpt(tc.scenario, tc.m, tc.n, scenario.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Testbed.Close()
			b := &statesync.Bootstrapper{}
			segs, recs, err := BootstrapHosts(context.Background(), b, hostSrv.URL, dst.Testbed)
			if err != nil {
				t.Fatal(err)
			}
			if segs != tc.segs || recs != tc.records {
				t.Fatalf("bootstrap absorbed %d segments / %d records, want %d / %d", segs, recs, tc.segs, tc.records)
			}
			if err := BootstrapSwitches(context.Background(), b, switchSrv.URL, dst.Testbed); err != nil {
				t.Fatal(err)
			}

			// Diagnose against the bootstrapped plane only: a remote-backend
			// analyzer whose every host and switch interaction reaches the
			// bootstrapped daemon.
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
				t.Fatalf("bootstrapped run: %v", err)
			}
			if got := wireJSON(t, WireFromReport(remote)); got != localWire {
				t.Fatalf("bootstrapped report diverged\n--- source in-memory ---\n%s\n--- bootstrapped ---\n%s", localWire, got)
			}
		})
	}
}

// hostAnswers canonicalizes one agent's answers for all five host-level
// query kinds (headers, top-k, flow sizes, record lookup, priority) over
// every switch and every flow the reference store holds.
func hostAnswers(t *testing.T, ag *hostagent.Agent, switches []netsim.NodeID, flows []netsim.FlowKey) string {
	t.Helper()
	ctx := context.Background()
	out := map[string]any{}
	for _, sw := range switches {
		key := fmt.Sprintf("%d", sw)
		out["headers/"+key] = ag.QueryHeaders(ctx, hostagent.HeadersQuery{Switch: sw, Epochs: simtime.EpochRange{Lo: 0, Hi: 1 << 30}})
		out["topk/"+key] = ag.QueryTopK(ctx, sw, 100)
		out["flowsizes/"+key] = ag.QueryFlowSizes(ctx, sw)
	}
	for _, f := range flows {
		rec, ok := ag.LookupRecord(ctx, f)
		prio, known := ag.QueryPriority(ctx, f)
		out["record/"+f.String()] = map[string]any{"rec": rec, "ok": ok}
		out["priority/"+f.String()] = map[string]any{"prio": prio, "known": known}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestBootstrapMidSimulationAndIngestCatchUp bootstraps a second host
// daemon from a live one mid-simulation and asserts every host agent's
// answers for all five query kinds are byte-identical to the source's; the
// source then plays on to its horizon and the replica catches up over the
// live ingest feed, staying byte-identical.
func TestBootstrapMidSimulationAndIngestCatchUp(t *testing.T) {
	s, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := s.Testbed
	defer src.Close()
	src.Run(15 * simtime.Millisecond) // mid-simulation: half the horizon

	s2, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst := s2.Testbed
	defer dst.Close()

	hostSrv := httptest.NewServer(HostMux(src, nil))
	defer hostSrv.Close()
	rd := statesync.NewReadiness(false)
	dstSrv := httptest.NewServer(HostMux(dst, rd))
	defer dstSrv.Close()

	b := &statesync.Bootstrapper{Readiness: rd}
	if _, recs, err := BootstrapHosts(context.Background(), b, hostSrv.URL, dst); err != nil {
		t.Fatal(err)
	} else if recs == 0 {
		t.Fatal("mid-simulation bootstrap absorbed no records")
	}
	rd.SetLive()

	var switches []netsim.NodeID
	for id := range src.SwitchAgents {
		switches = append(switches, id)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })

	compare := func(stage string) {
		t.Helper()
		for ip, srcAg := range src.HostAgents {
			var flows []netsim.FlowKey
			for _, r := range srcAg.Store.All() {
				flows = append(flows, r.Flow)
			}
			want := hostAnswers(t, srcAg, switches, flows)
			got := hostAnswers(t, dst.HostAgents[ip], switches, flows)
			if got != want {
				t.Fatalf("%s: host %v answers diverged\n--- source ---\n%s\n--- replica ---\n%s", stage, ip, want, got)
			}
		}
	}
	compare("mid-simulation bootstrap")

	// The source plays on; the replica catches up over POST /ingest.
	src.Run(30 * simtime.Millisecond)
	for ip, srcAg := range src.HostAgents {
		url := dstSrv.URL + "/hosts/" + ip.String() + "/ingest"
		if _, err := statesync.FeedStore(context.Background(), nil, url, srcAg.Store, 4); err != nil {
			t.Fatal(err)
		}
	}
	compare("ingest catch-up")

	// The replica's health reflects the journey: live, with bootstrap and
	// ingest accounting and the full resident set.
	if err := WaitReady(context.Background(), dstSrv.URL+"/healthz", time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestWaitReadyGatesOnLive proves the readiness gate: a syncing daemon
// answers 200 but WaitReady keeps waiting until the daemon flips to live.
func TestWaitReadyGatesOnLive(t *testing.T) {
	s, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Testbed.Close()
	rd := statesync.NewReadiness(false)
	srv := httptest.NewServer(HostMux(s.Testbed, rd))
	defer srv.Close()

	if err := WaitReady(context.Background(), srv.URL+"/healthz", 250*time.Millisecond); err == nil {
		t.Fatal("WaitReady returned while the daemon was still syncing")
	}
	rd.SetLive()
	if err := WaitReady(context.Background(), srv.URL+"/healthz", 5*time.Second); err != nil {
		t.Fatalf("WaitReady after SetLive: %v", err)
	}
}

// TestColdReadBackDiagnosis drives a whole diagnosis whose epoch window has
// been evicted: every host store is flushed wholesale into indexed segment
// logs, and the contention procedure must still find the same culprits —
// with the extra cold-read-back round visible on the report clock.
func TestColdReadBackDiagnosis(t *testing.T) {
	src, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Testbed.Close()
	q, err := src.Query()
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := src.Testbed.Analyzer.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.ColdSegments != 0 || baseline.Clock.PhaseTotal("cold-read-back") != 0 {
		t.Fatalf("baseline report carries cold accounting: %d segments", baseline.ColdSegments)
	}

	// Second identical testbed: evict EVERY record into segment logs.
	cold, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Testbed.Close()
	q2, err := cold.Query()
	if err != nil {
		t.Fatal(err)
	}
	for _, ag := range cold.Testbed.HostAgents {
		seglog, err := statesync.NewSegmentLog("")
		if err != nil {
			t.Fatal(err)
		}
		ag.Store.SetRetention(store.Retention{HotEpochs: 1, Alpha: cold.Testbed.Opt.Alpha, Cold: seglog})
		if _, err := ag.Store.Maintain(1 << 40); err != nil {
			t.Fatal(err)
		}
		if ag.Store.Len() != 0 {
			t.Fatalf("host still holds %d resident records", ag.Store.Len())
		}
		ag.SetColdReader(seglog)
	}

	rep, err := cold.Testbed.Analyzer.Run(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdSegments == 0 {
		t.Fatal("evicted-window diagnosis decoded no cold segments")
	}
	extra := rep.Clock.PhaseTotal("cold-read-back")
	if extra == 0 {
		t.Fatal("no cold-read-back round charged on the clock")
	}

	// Same verdict: culprits and per-switch shares byte-identical.
	baseWire, coldWire := WireFromReport(baseline), WireFromReport(rep)
	bc, _ := json.Marshal(baseWire.Culprits)
	cc, _ := json.Marshal(coldWire.Culprits)
	if string(bc) != string(cc) {
		t.Fatalf("cold culprits diverged\n--- baseline ---\n%s\n--- cold ---\n%s", bc, cc)
	}
	if baseWire.Kind != coldWire.Kind || baseWire.Conclusion != coldWire.Conclusion {
		t.Fatalf("cold verdict diverged: %q/%q vs %q/%q", baseWire.Kind, baseWire.Conclusion, coldWire.Kind, coldWire.Conclusion)
	}
	// The cold run costs exactly the baseline plus the charged extra
	// round(s) — virtual-time accounting stays honest.
	if got, want := rep.Clock.Total(), baseline.Clock.Total()+extra; got != want {
		t.Fatalf("cold total %v != baseline %v + cold rounds %v", got, baseline.Clock.Total(), extra)
	}
}

// TestSwitchBootstrapConcurrentWithPulls is the -race gate for the syncing
// switch daemon: a replica serves pointer pulls over HTTP while a
// background bootstrap restores its pointer structures — exactly what `spd
// switch -bootstrap-from` does. After the bootstrap lands, pulls must
// answer identically to the source's.
func TestSwitchBootstrapConcurrentWithPulls(t *testing.T) {
	src, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Testbed.Close()
	src.Run()
	srcSrv := httptest.NewServer(SwitchMux(src.Testbed, nil))
	defer srcSrv.Close()

	dst, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Testbed.Close()
	rd := statesync.NewReadiness(false)
	dstSrv := httptest.NewServer(SwitchMux(dst.Testbed, rd))
	defer dstSrv.Close()

	ids := dst.SwitchIDs()
	window := simtime.EpochRange{Lo: 0, Hi: 5}
	client := rpc.NewPooledHTTPClient()
	defer client.CloseIdleConnections()

	// Hammer pulls and healthz against the syncing replica while the
	// bootstrap restores underneath them.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					url := dstSrv.URL + "/switches/" + strconv.Itoa(int(id))
					if _, _, err := client.PullPointers(context.Background(), url, window); err != nil {
						t.Error(err)
						return
					}
				}
				if err := WaitReady(context.Background(), dstSrv.URL+"/healthz", 10*time.Millisecond); err == nil && !rd.Live() {
					t.Error("healthz reported live while syncing")
					return
				}
			}
		}()
	}
	b := &statesync.Bootstrapper{Readiness: rd}
	if err := BootstrapSwitches(context.Background(), b, srcSrv.URL, dst.Testbed); err != nil {
		t.Fatal(err)
	}
	rd.SetLive()
	close(stop)
	wg.Wait()

	// Post-bootstrap pulls answer byte-identically to the source's.
	for _, id := range ids {
		srcBits, srcResp, err := client.PullPointers(context.Background(), srcSrv.URL+"/switches/"+strconv.Itoa(int(id)), window)
		if err != nil {
			t.Fatal(err)
		}
		dstBits, dstResp, err := client.PullPointers(context.Background(), dstSrv.URL+"/switches/"+strconv.Itoa(int(id)), window)
		if err != nil {
			t.Fatal(err)
		}
		if srcResp.HostsB64 != dstResp.HostsB64 || srcResp.Level != dstResp.Level || srcResp.Source != dstResp.Source {
			t.Fatalf("switch %d: pull diverged: %+v vs %+v", id, srcResp, dstResp)
		}
		if fmt.Sprint(srcBits.Indices()) != fmt.Sprint(dstBits.Indices()) {
			t.Fatalf("switch %d: bitmaps diverged", id)
		}
	}
}
