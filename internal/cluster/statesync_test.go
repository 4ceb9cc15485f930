package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// TestBootstrapMidSimulation bootstraps a second host daemon from a live
// one mid-simulation and asserts every host agent's answers for all five
// query kinds are byte-identical to the source's, and that the replica's
// /healthz reports the bootstrap it absorbed.
func TestBootstrapMidSimulation(t *testing.T) {
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
	segs, recs, err := BootstrapHosts(context.Background(), b, hostSrv.URL, dst)
	if err != nil {
		t.Fatal(err)
	} else if recs == 0 {
		t.Fatal("mid-simulation bootstrap absorbed no records")
	}
	rd.SetLive()

	switches := switchIDs(src)
	for ip, srcAg := range src.HostAgents {
		var flows []netsim.FlowKey
		for _, r := range allRecords(t, srcAg.Store) {
			flows = append(flows, r.Flow)
		}
		want := hostAnswers(t, srcAg, switches, flows)
		got := hostAnswers(t, dst.HostAgents[ip], switches, flows)
		if got != want {
			t.Fatalf("host %v answers diverged\n--- source ---\n%s\n--- replica ---\n%s", ip, want, got)
		}
	}

	// The replica's health reflects the journey: live, with the bootstrap's
	// accounting.
	resp, err := http.Get(dstSrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h statesync.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.State != "live" || h.BootstrapRecords != int64(recs) || h.BootstrapSegments != int64(segs) {
		t.Fatalf("replica healthz = %+v, want live with %d segments / %d records bootstrapped", h, segs, recs)
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

	ids := switchIDs(dst.Testbed)
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
		if !bytes.Equal(srcResp.Hosts, dstResp.Hosts) || srcResp.Level != dstResp.Level || srcResp.Source != dstResp.Source {
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
	if err := st.SnapshotShards(func(seg []byte) error {
		recs, err := flowrec.DecodeSegment(seg)
		all = append(all, recs...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	flowrec.SortRecords(all)
	return all
}
