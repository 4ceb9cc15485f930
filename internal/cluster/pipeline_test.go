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

// TestPipelineDedup pins the dedup contract: a flow forwarded
// less than a window ago is suppressed, the window is measured on the
// alerts' virtual DetectedAt clock, and only actual forwards arm it.
func TestPipelineDedup(t *testing.T) {
	var got []analyzer.Query
	p := NewAlertPipeline(PipelineConfig{DedupWindow: simtime.Second},
		func(q analyzer.Query) { got = append(got, q) })

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

	st := p.Stats()
	want := PipelineStats{Received: 4, Deduped: 1, Forwarded: 3}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if len(got) != 3 {
		t.Fatalf("forward sink saw %d alerts, want 3", len(got))
	}
}

// TestPipelineRateLimit pins the token bucket: Burst forwards immediately,
// then the virtual-clock refill gates the rest.
func TestPipelineRateLimit(t *testing.T) {
	p := NewAlertPipeline(PipelineConfig{Rate: 1, Burst: 2}, nil)

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

// TestPipelineEnrichment drives a real scenario alert through the pipeline:
// it is forwarded as a contention query.
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

	var got analyzer.Query
	p := NewAlertPipeline(PipelineConfig{}, func(q analyzer.Query) { got = q })
	if !p.Offer(alert) {
		t.Fatal("alert suppressed by empty config")
	}
	if _, ok := got.(analyzer.ContentionQuery); !ok {
		t.Fatalf("throughput-drop alert mapped to %T, want ContentionQuery", got)
	}
}

// stormCounts replays the canonical deterministic alert storm — 10 waves ×
// 20 flows, 100 ms apart, dedup window 1 s, rate 1/s with burst 8 — and
// returns the pipeline stats.
func stormCounts(forward func(analyzer.Query)) PipelineStats {
	p := NewAlertPipeline(PipelineConfig{
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
	forward := func(q analyzer.Query) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			//nolint:errcheck // overflow rejections are expected under storm
			ad.Run(context.Background(), q)
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
		s := statsWithin(t, ad)
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
