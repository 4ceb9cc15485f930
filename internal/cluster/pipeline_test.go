package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
)

// stormAlert builds a synthetic alert for pipeline unit tests: flow index f,
// detected at t.
func stormAlert(f int, t simtime.Time) hostagent.Alert {
	return hostagent.Alert{
		Kind:       hostagent.AlertThroughputDrop,
		Flow:       netsim.FlowKey{Src: netsim.IPv4(0x0a000001), Dst: netsim.IPv4(0x0a000100 + uint32(f)), SrcPort: 1000, DstPort: 80},
		DetectedAt: t,
	}
}

// TestPipelineDedup pins the dedup contract: a (kind, flow) pair forwarded
// less than a window ago is suppressed, the window is measured on the
// alerts' virtual DetectedAt clock, and only actual forwards arm it.
func TestPipelineDedup(t *testing.T) {
	var got []EnrichedAlert
	p := NewAlertPipeline(nil, PipelineConfig{DedupWindow: simtime.Second},
		func(ea EnrichedAlert) { got = append(got, ea) })

	if !p.Offer(stormAlert(1, 0)) {
		t.Fatal("first alert suppressed")
	}
	if p.Offer(stormAlert(1, 500*simtime.Millisecond)) {
		t.Fatal("duplicate within window forwarded")
	}
	if !p.Offer(stormAlert(2, 500*simtime.Millisecond)) {
		t.Fatal("distinct flow suppressed")
	}
	if !p.Offer(stormAlert(1, 1500*simtime.Millisecond)) {
		t.Fatal("alert beyond window suppressed")
	}
	// Same flow, different kind: a distinct dedup key.
	timeout := stormAlert(1, 1600*simtime.Millisecond)
	timeout.Kind = hostagent.AlertTimeout
	if !p.Offer(timeout) {
		t.Fatal("distinct kind suppressed")
	}

	st := p.Stats()
	want := PipelineStats{Received: 5, Deduped: 1, Forwarded: 4}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if len(got) != 4 {
		t.Fatalf("forward sink saw %d alerts, want 4", len(got))
	}
}

// TestPipelineRateLimit pins the token bucket: Burst forwards immediately,
// then the virtual-clock refill gates the rest.
func TestPipelineRateLimit(t *testing.T) {
	p := NewAlertPipeline(nil, PipelineConfig{Rate: 1, Burst: 2}, nil)

	forwarded := 0
	for f := 0; f < 5; f++ {
		if p.Offer(stormAlert(f, 0)) {
			forwarded++
		}
	}
	if forwarded != 2 {
		t.Fatalf("burst forwarded %d, want 2", forwarded)
	}
	// Half a second refills half a token: still gated.
	if p.Offer(stormAlert(10, 500*simtime.Millisecond)) {
		t.Fatal("forwarded before a full token refilled")
	}
	// A full second from start refills one token.
	if !p.Offer(stormAlert(11, simtime.Second)) {
		t.Fatal("suppressed after a full token refilled")
	}
	st := p.Stats()
	want := PipelineStats{Received: 7, RateLimited: 4, Forwarded: 3}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestPipelineEnrichment drives a real scenario alert through enrichment:
// the tuple switch set comes out sorted and deduplicated, the victim flow's
// topology path is attached, and the alert kind maps to the right query.
func TestPipelineEnrichment(t *testing.T) {
	s, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Testbed.Close()
	alert, err := s.Alert()
	if err != nil {
		t.Fatal(err)
	}
	if len(alert.Tuples) == 0 {
		t.Fatal("scenario alert carries no tuples")
	}

	var got EnrichedAlert
	p := NewAlertPipeline(s.Testbed.Topo, PipelineConfig{}, func(ea EnrichedAlert) { got = ea })
	if !p.Offer(alert) {
		t.Fatal("alert suppressed by empty config")
	}

	if len(got.Switches) == 0 {
		t.Fatal("no switches attached")
	}
	for i := 1; i < len(got.Switches); i++ {
		if got.Switches[i-1] >= got.Switches[i] {
			t.Fatalf("switches not sorted/unique: %v", got.Switches)
		}
	}
	if len(got.Path) == 0 {
		t.Fatal("no topology path attached")
	}
	// The scenario's trigger is a throughput-drop alert → contention query.
	if _, ok := got.Query.(analyzer.ContentionQuery); !ok {
		t.Fatalf("throughput-drop alert mapped to %T, want ContentionQuery", got.Query)
	}

	timeout := alert
	timeout.Kind = hostagent.AlertTimeout
	p.Offer(timeout)
	if _, ok := got.Query.(analyzer.RedLightsQuery); !ok {
		t.Fatalf("timeout alert mapped to %T, want RedLightsQuery", got.Query)
	}
}

// stormCounts replays the canonical deterministic alert storm — 10 waves ×
// 20 flows, 100 ms apart, dedup window 1 s, rate 1/s with burst 8 — and
// returns the pipeline stats. Shared with BenchmarkAlertStorm, whose
// reported counts are drift-gated.
func stormCounts(forward func(EnrichedAlert)) PipelineStats {
	p := NewAlertPipeline(nil, PipelineConfig{
		DedupWindow: simtime.Second,
		Rate:        1,
		Burst:       8,
	}, forward)
	for wave := 0; wave < 10; wave++ {
		at := simtime.Time(wave) * 100 * simtime.Millisecond
		for f := 0; f < 20; f++ {
			p.Offer(stormAlert(f, at))
		}
	}
	return p.Stats()
}

// TestAlertStormDeterministicCounts pins the storm arithmetic: wave 0's 20
// unique flows hit a full burst-8 bucket (8 forwarded, 12 rate-limited);
// every later wave dedups the 8 forwarded flows while the refill (0.1
// token/wave) never reaches a full token for the rest.
func TestAlertStormDeterministicCounts(t *testing.T) {
	st := stormCounts(nil)
	want := PipelineStats{Received: 200, Deduped: 72, RateLimited: 120, Forwarded: 8}
	if st != want {
		t.Fatalf("storm stats %+v, want %+v", st, want)
	}
}

// TestAlertStormBoundsAdmission is the end-to-end storm proof: a storm of
// 200 raw alerts pours through the pipeline into a live admission
// controller whose runner is deliberately stuck, and the controller's
// occupancy never exceeds its configured bounds — the pipeline plus
// admission together turn an unbounded alert storm into a bounded inflow.
func TestAlertStormBoundsAdmission(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	ad := NewAdmission(stub, AdmissionConfig{MaxInFlight: 2, MaxQueued: 3})

	var wg sync.WaitGroup
	forward := func(ea EnrichedAlert) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			//nolint:errcheck // overflow rejections are expected under storm
			ad.Run(context.Background(), ea.Query)
		}()
	}
	st := stormCounts(forward)
	if st.Forwarded != 8 {
		t.Fatalf("storm forwarded %d, want 8", st.Forwarded)
	}

	// Let the 8 forwards reach the controller, then check occupancy while
	// the runner is still stuck.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := ad.Stats()
		if s.InFlight+s.Queued+int(s.Rejected) >= 5 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mid := ad.Stats()
	if mid.InFlight > 2 {
		t.Errorf("in-flight %d exceeds bound 2", mid.InFlight)
	}
	if mid.Queued > 3 {
		t.Errorf("queued %d exceeds bound 3", mid.Queued)
	}

	close(stub.gate)
	wg.Wait()
	end := ad.Stats()
	if end.InFlight != 0 || end.Queued != 0 {
		t.Fatalf("controller did not settle: %+v", end)
	}
	if end.Admitted+end.Rejected+end.Expired+end.Cancelled != uint64(st.Forwarded) {
		t.Fatalf("admission accounting %+v does not cover %d forwards", end, st.Forwarded)
	}
	if got := stub.peak.Load(); got > 2 {
		t.Fatalf("runner concurrency peak %d, want ≤ 2", got)
	}
}

// TestPipelineRun drains a channel like the analyzer daemon's subscription
// goroutine does.
func TestPipelineRun(t *testing.T) {
	var mu sync.Mutex
	var n int
	p := NewAlertPipeline(nil, PipelineConfig{}, func(EnrichedAlert) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	ch := make(chan hostagent.Alert, 4)
	for f := 0; f < 3; f++ {
		ch <- stormAlert(f, simtime.Time(f)*simtime.Millisecond)
	}
	close(ch)
	done := make(chan struct{})
	go func() { p.Run(context.Background(), ch); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return on channel close")
	}
	mu.Lock()
	defer mu.Unlock()
	if n != 3 {
		t.Fatalf("forwarded %d, want 3", n)
	}
}
