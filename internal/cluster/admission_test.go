package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/scenario"
)

// stubRunner executes queries under caller control: each Run blocks until
// the test releases it, while tracking the concurrency high-water mark.
type stubRunner struct {
	gate     chan struct{} // each Run consumes one token (nil = run through)
	started  chan string   // receives the query name when a Run begins
	inflight atomic.Int64
	peak     atomic.Int64
	runs     atomic.Int64
}

func (s *stubRunner) Run(ctx context.Context, q analyzer.Query) (*analyzer.Report, error) {
	cur := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for {
		old := s.peak.Load()
		if cur <= old || s.peak.CompareAndSwap(old, cur) {
			break
		}
	}
	s.runs.Add(1)
	if s.started != nil {
		s.started <- q.Name()
	}
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &analyzer.Report{Kind: analyzer.KindInconclusive}, nil
}

func timeoutQuery() analyzer.Query {
	return analyzer.ContentionQuery{Alert: hostagent.Alert{Kind: hostagent.AlertTimeout}}
}

func dropQuery() analyzer.Query {
	return analyzer.ContentionQuery{Alert: hostagent.Alert{Kind: hostagent.AlertThroughputDrop}}
}

// TestAdmissionBoundsInFlight pins the core contract: never more than
// MaxInFlight concurrent Runs, every submitted query accounted exactly once
// across admitted/rejected, and the counters settle clean.
func TestAdmissionBoundsInFlight(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	ad := NewAdmission(stub, AdmissionConfig{MaxInFlight: 2, MaxQueued: 3})

	const submitters = 10
	var wg sync.WaitGroup
	var okCount, rejected atomic.Int64
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := ad.Run(context.Background(), dropQuery())
			switch {
			case err == nil:
				okCount.Add(1)
			case errors.Is(err, ErrRejected):
				rejected.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	// Release everyone; close is fine — the gate is consume-on-read via
	// select, so a closed gate releases all current and future Runs.
	time.Sleep(20 * time.Millisecond)
	close(stub.gate)
	wg.Wait()

	if got := stub.peak.Load(); got > 2 {
		t.Fatalf("in-flight peak %d, want ≤ 2", got)
	}
	if okCount.Load()+rejected.Load() != submitters {
		t.Fatalf("accounting: %d ok + %d rejected != %d", okCount.Load(), rejected.Load(), submitters)
	}
	if rejected.Load() == 0 {
		t.Fatal("queue bound never hit — test not exercising rejection")
	}
	stats := ad.Stats()
	if stats.InFlight != 0 || stats.Queued != 0 {
		t.Fatalf("counters did not settle: %+v", stats)
	}
	if stats.Admitted != uint64(okCount.Load()) || stats.Rejected != uint64(rejected.Load()) {
		t.Fatalf("stats %+v disagree with outcomes (%d ok, %d rejected)", stats, okCount.Load(), rejected.Load())
	}
}

// TestAdmissionPriorityOrder pins the overflow queue's per-alert-kind
// priority: with the slot busy, a queued timeout alert overtakes an earlier
// queued throughput-drop alert, FIFO within each class.
func TestAdmissionPriorityOrder(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{}), started: make(chan string, 8)}
	ad := NewAdmission(stub, AdmissionConfig{MaxInFlight: 1, MaxQueued: 8})

	errs := make(chan error, 3)
	go func() { _, err := ad.Run(context.Background(), dropQuery()); errs <- err }()
	if got := <-stub.started; got != "contention" {
		t.Fatalf("first run %q", got)
	}

	// Queue a background top-k, then a drop alert, then a timeout alert —
	// service order must be timeout, drop, top-k.
	queued := []struct {
		q    analyzer.Query
		name string
	}{
		{analyzer.TopKQuery{K: 1}, "top-k"},
		{dropQuery(), "contention"},
		{timeoutQuery(), "contention"},
	}
	for n, item := range queued {
		item := item
		go func() { _, err := ad.Run(context.Background(), item.q); errs <- err }()
		// Wait until the waiter is actually queued before adding the next,
		// so arrival order is deterministic.
		deadline := time.Now().Add(time.Second)
		for ad.Stats().Queued != n+1 {
			if time.Now().After(deadline) {
				t.Fatalf("queue never reached %d: %+v", n+1, ad.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	stub.gate <- struct{}{} // finish the in-flight drop query
	if got := <-stub.started; got != "contention" {
		t.Fatalf("second served %q, want the timeout-alert contention query", got)
	}
	stub.gate <- struct{}{}
	if got := <-stub.started; got != "contention" {
		t.Fatalf("third served %q, want the drop-alert contention query", got)
	}
	stub.gate <- struct{}{}
	if got := <-stub.started; got != "top-k" {
		t.Fatalf("fourth served %q, want top-k", got)
	}
	stub.gate <- struct{}{}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

// TestAdmissionTypedErrors pins the typed failure modes: ErrRejected on a
// full queue, ErrExpired on the queue-wait bound, ctx.Err while queued.
func TestAdmissionTypedErrors(t *testing.T) {
	stub := &stubRunner{gate: make(chan struct{})}
	ad := NewAdmission(stub, AdmissionConfig{MaxInFlight: 1, MaxQueued: 1, QueueWait: 30 * time.Millisecond})

	done := make(chan error, 1)
	go func() { _, err := ad.Run(context.Background(), dropQuery()); done <- err }()
	deadline := time.Now().Add(time.Second)
	for ad.Stats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first query never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Occupy the single queue slot with a ctx-cancelled waiter.
	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan error, 1)
	go func() { _, err := ad.Run(ctx, dropQuery()); waiting <- err }()
	for ad.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}

	// Queue full → ErrRejected.
	if _, err := ad.Run(context.Background(), dropQuery()); !errors.Is(err, ErrRejected) {
		t.Fatalf("full queue returned %v, want ErrRejected", err)
	}

	// Cancel the waiter → its ctx error surfaces, slot count restored.
	cancel()
	if err := <-waiting; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", err)
	}

	// A fresh waiter expires after QueueWait → ErrExpired.
	if _, err := ad.Run(context.Background(), dropQuery()); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired waiter returned %v, want ErrExpired", err)
	}

	close(stub.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	stats := ad.Stats()
	if stats.Cancelled != 1 || stats.Expired != 1 || stats.Rejected != 1 {
		t.Fatalf("typed-outcome counters wrong: %+v", stats)
	}
}

// TestAdmissionOverlappingAlertsRace floods a real analyzer with
// overlapping alert diagnoses through the controller — the -race-gated
// proof that concurrent Analyzer.Run calls under admission are safe (the
// sharded stores and per-switch pull locks carry the load) and produce
// identical reports.
func TestAdmissionOverlappingAlertsRace(t *testing.T) {
	s, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Testbed.Close()
	alert, err := s.Alert()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := s.Testbed.Analyzer.Run(context.Background(), analyzer.RedLightsQuery{Alert: alert})
	if err != nil {
		t.Fatal(err)
	}
	goldenTotal := golden.Total()

	ad := NewAdmission(s.Testbed.Analyzer, AdmissionConfig{MaxInFlight: 4, MaxQueued: 64})
	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				r, err := ad.Run(context.Background(), analyzer.RedLightsQuery{Alert: alert})
				if err != nil {
					t.Errorf("overlapping run: %v", err)
					return
				}
				if r.Kind != golden.Kind || r.Total() != goldenTotal || len(r.Culprits) != len(golden.Culprits) {
					t.Errorf("overlapping run diverged: kind=%v total=%v culprits=%d", r.Kind, r.Total(), len(r.Culprits))
					return
				}
			}
		}()
	}
	wg.Wait()
	stats := ad.Stats()
	if stats.Admitted != clients*3 || stats.InFlight != 0 || stats.Queued != 0 {
		t.Fatalf("admission stats after flood: %+v", stats)
	}
}
