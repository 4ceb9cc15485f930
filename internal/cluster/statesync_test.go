package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
)

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
			for _, r := range allRecords(t, srcAg.Store) {
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
		if _, err := statesync.FeedStore(context.Background(), nil, url, srcAg.Store); err != nil {
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

// allRecords collects every record of st through SnapshotShards, in
// flow-key order.
func allRecords(t testing.TB, st *store.RecordStore) []*flowrec.Record {
	t.Helper()
	var all []*flowrec.Record
	if err := st.SnapshotShards(store.EveryEpoch, func(seg []byte) error {
		recs, _, err := flowrec.DecodeSegment(seg, nil)
		all = append(all, recs...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	flowrec.SortRecords(all)
	return all
}
