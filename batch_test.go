package switchpointer

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
)

// redLightsTestbed builds the §5.2 scenario: a TCP victim crossing three
// switches with a high-priority UDP burst crossing it mid-path, yielding an
// alert whose tuple list spans the whole path.
func redLightsTestbed(t *testing.T) (*Testbed, Alert) {
	t.Helper()
	tb, err := New(Chain(2, 2, 2), WithQueueDiscipline(QueuePriority))
	if err != nil {
		t.Fatal(err)
	}
	a := tb.Host("h1-1")
	f := tb.Host("h3-2")
	victim := FlowKey{Src: a.IP(), Dst: f.IP(), SrcPort: 1, DstPort: 2, Proto: 6}
	StartTCP(tb.Net, a, f, TCPConfig{Flow: victim, Priority: 1, Duration: 10 * Millisecond})
	bHost := tb.Host("h1-2")
	dHost := tb.Host("h2-2")
	StartUDP(tb.Net, bHost, UDPConfig{
		Flow:     FlowKey{Src: bHost.IP(), Dst: dHost.IP(), SrcPort: 3, DstPort: 4, Proto: 17},
		Priority: 7, RateBps: 1_000_000_000,
		Start: 5 * Millisecond, Duration: 400 * Microsecond})
	tb.Run(30 * Millisecond)
	alert, ok := tb.AlertFor(victim)
	if !ok {
		t.Fatal("no alert raised")
	}
	return tb, alert
}

// TestBatchedPointerPullRounds is the acceptance gate for the batched
// pointer path: a diagnosis issues exactly ONE pointer round trip per
// alert (Directory.HostsBatch), covering every tuple of the alert, with
// the virtual-time charge unchanged from the sequential implementation.
func TestBatchedPointerPullRounds(t *testing.T) {
	tb, alert := redLightsTestbed(t)
	if len(alert.Tuples) < 2 {
		t.Fatalf("alert carries %d tuples, want a multi-switch path", len(alert.Tuples))
	}
	rep, err := tb.Analyzer.Run(context.Background(), analyzer.RedLightsQuery{Alert: alert})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Clock.PointerRounds(); got != 1 {
		t.Fatalf("diagnosis used %d pointer rounds, want 1 batched round", got)
	}
	if got := rep.Clock.PointersCharged(); got != len(alert.Tuples) {
		t.Fatalf("batched round charged %d pulls, want %d (one per tuple)", got, len(alert.Tuples))
	}
	// The batched round must charge exactly what the sequential loop did:
	// PointerPull + (n-1)·PointerPullExtra.
	cost := rpc.DefaultCostModel()
	want := cost.PointerPull + simtime.Time(len(alert.Tuples)-1)*cost.PointerPullExtra
	if got := rep.Clock.PhaseTotal("pointer-retrieval"); got != want {
		t.Fatalf("pointer-retrieval phase = %v, want %v", got, want)
	}
}

// TestHostsBatchMatchesSequentialHosts pins batch/sequential equivalence on
// the in-memory backend: HostsBatch answers slot-for-slot what per-tuple
// Hosts calls answer, including the unknown-switch slots.
func TestHostsBatchMatchesSequentialHosts(t *testing.T) {
	tb, alert := redLightsTestbed(t)
	dir := tb.Analyzer.Dir
	reqs := make([]analyzer.SwitchEpochs, 0, len(alert.Tuples)+1)
	for _, tup := range alert.Tuples {
		reqs = append(reqs, analyzer.SwitchEpochs{Switch: tup.Switch, Epochs: tup.Epochs})
	}
	reqs = append(reqs, analyzer.SwitchEpochs{Switch: 9999, Epochs: simtime.EpochRange{Lo: 0, Hi: 1}})

	hosts, errs := dir.HostsBatch(context.Background(), reqs)
	if len(hosts) != len(reqs) || len(errs) != len(reqs) {
		t.Fatalf("batch shape: %d hosts, %d errs, want %d", len(hosts), len(errs), len(reqs))
	}
	for i, req := range reqs {
		seq, seqErr := dir.Hosts(context.Background(), req.Switch, req.Epochs)
		if (seqErr == nil) != (errs[i] == nil) {
			t.Fatalf("slot %d: batch err %v, sequential err %v", i, errs[i], seqErr)
		}
		if !reflect.DeepEqual(hosts[i], seq) {
			t.Fatalf("slot %d: batch %v != sequential %v", i, hosts[i], seq)
		}
	}
}

// TestRemoteDirectory exercises the remote Directory backend end to end
// over real HTTP: pointer pulls (single and batched) against switch-agent
// handlers must answer byte-identically to the in-memory backend, a full
// diagnosis run through the remote backend must produce the identical
// report, and Distribute must install a working MPH over the wire.
func TestRemoteDirectory(t *testing.T) {
	tb, alert := redLightsTestbed(t)

	urls := make(map[netsim.NodeID]string, len(tb.SwitchAgents))
	for id, ag := range tb.SwitchAgents {
		srv := httptest.NewServer(rpc.NewSwitchHandler(ag, "", nil))
		defer srv.Close()
		urls[id] = srv.URL
	}
	var ips []netsim.IPv4
	for _, h := range tb.Topo.Hosts() {
		ips = append(ips, h.IP())
	}
	remote, err := analyzer.NewRemoteDirectory(ips, urls, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Single and batched pulls agree with the in-memory backend.
	mem := tb.Analyzer.Dir
	reqs := make([]analyzer.SwitchEpochs, 0, len(alert.Tuples))
	for _, tup := range alert.Tuples {
		reqs = append(reqs, analyzer.SwitchEpochs{Switch: tup.Switch, Epochs: tup.Epochs})
	}
	remoteHosts, remoteErrs := remote.HostsBatch(context.Background(), reqs)
	memHosts, memErrs := mem.HostsBatch(context.Background(), reqs)
	for i := range reqs {
		if remoteErrs[i] != nil || memErrs[i] != nil {
			t.Fatalf("slot %d errs: remote=%v mem=%v", i, remoteErrs[i], memErrs[i])
		}
		if !reflect.DeepEqual(remoteHosts[i], memHosts[i]) {
			t.Fatalf("slot %d: remote %v != memory %v", i, remoteHosts[i], memHosts[i])
		}
	}
	if _, err := remote.Hosts(context.Background(), 9999, simtime.EpochRange{}); err == nil {
		t.Fatal("unknown switch should error")
	}

	// A diagnosis through the remote backend is byte-identical.
	memRep, err := tb.Analyzer.Run(context.Background(), analyzer.RedLightsQuery{Alert: alert})
	if err != nil {
		t.Fatal(err)
	}
	tb.Analyzer.Dir = remote
	remoteRep, err := tb.Analyzer.Run(context.Background(), analyzer.RedLightsQuery{Alert: alert})
	tb.Analyzer.Dir = mem
	if err != nil {
		t.Fatal(err)
	}
	if remoteRep.Kind != memRep.Kind || remoteRep.Total() != memRep.Total() ||
		!reflect.DeepEqual(remoteRep.Culprits, memRep.Culprits) ||
		!reflect.DeepEqual(remoteRep.Consulted, memRep.Consulted) {
		t.Fatalf("remote diagnosis diverged: kind=%v/%v total=%v/%v",
			remoteRep.Kind, memRep.Kind, remoteRep.Total(), memRep.Total())
	}
	if got := remoteRep.Clock.PointerRounds(); got != 1 {
		t.Fatalf("remote diagnosis used %d pointer rounds, want 1", got)
	}

	// Distribute over the wire: switches keep resolving pointers afterwards.
	if err := remote.Distribute(context.Background()); err != nil {
		t.Fatal(err)
	}
	again, errs := remote.HostsBatch(context.Background(), reqs)
	for i := range reqs {
		if errs[i] != nil || !reflect.DeepEqual(again[i], remoteHosts[i]) {
			t.Fatalf("post-distribute slot %d diverged (err=%v)", i, errs[i])
		}
	}
}
