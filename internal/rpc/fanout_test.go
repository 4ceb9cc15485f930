package rpc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

func TestFanOutRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		var hits [100]int32
		dispatched, err := FanOut(context.Background(), workers, len(hits), func(_ context.Context, i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		if err != nil || dispatched != len(hits) {
			t.Fatalf("workers=%d: dispatched=%d err=%v", workers, dispatched, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestFanOutEmpty(t *testing.T) {
	dispatched, err := FanOut(context.Background(), 4, 0, func(context.Context, int) {
		t.Fatal("fn called for n=0")
	})
	if dispatched != 0 || err != nil {
		t.Fatalf("dispatched=%d err=%v", dispatched, err)
	}
}

func TestFanOutCancelledBeforeDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		dispatched, err := FanOut(ctx, workers, 10, func(context.Context, int) {
			t.Fatal("fn called after cancellation")
		})
		if dispatched != 0 || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: dispatched=%d err=%v", workers, dispatched, err)
		}
	}
}

// countdownCtx cancels after a fixed number of Err checks, giving the tests
// a deterministic mid-round cancellation point, and counts the checks.
// FanOut consults it only while claiming an index under the round's lock
// (fn polls a derived context), so no locking is needed even for
// workers > 1.
type countdownCtx struct {
	context.Context
	remaining int
	checks    int
}

func (c *countdownCtx) Err() error {
	c.checks++
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func TestFanOutCancelledMidDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx := &countdownCtx{Context: context.Background(), remaining: 5}
		var ran int32
		dispatched, err := FanOut(ctx, workers, 10, func(_ context.Context, i int) {
			if i >= 5 {
				t.Errorf("index %d dispatched past the cancellation point", i)
			}
			atomic.AddInt32(&ran, 1)
		})
		if dispatched != 5 || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: dispatched=%d err=%v", workers, dispatched, err)
		}
		// Every dispatched index completes before FanOut returns: the
		// dispatched set is always the prefix [0, dispatched).
		if ran != 5 {
			t.Fatalf("workers=%d: ran=%d, want 5", workers, ran)
		}
	}
}

// TestFanOutCheckCadence: whatever the width, a full round consults ctx
// exactly once per index, and a cancel at check k+1 leaves k checks passed,
// k+1 made and the prefix [0, k) dispatched.
func TestFanOutCheckCadence(t *testing.T) {
	const n = 10
	for _, workers := range []int{1, 2, 8} {
		full := &countdownCtx{Context: context.Background(), remaining: n}
		if dispatched, err := FanOut(full, workers, n, func(context.Context, int) {}); dispatched != n || err != nil {
			t.Fatalf("workers=%d full round: dispatched=%d err=%v", workers, dispatched, err)
		}
		if full.checks != n {
			t.Fatalf("workers=%d full round: %d Err checks, want %d", workers, full.checks, n)
		}
		for k := 0; k < n; k++ {
			ctx := &countdownCtx{Context: context.Background(), remaining: k}
			var ran [n]int32
			dispatched, err := FanOut(ctx, workers, n, func(_ context.Context, i int) {
				atomic.AddInt32(&ran[i], 1)
			})
			if dispatched != k || !errors.Is(err, context.Canceled) || ctx.checks != k+1 {
				t.Fatalf("workers=%d cancel at check %d: dispatched=%d err=%v checks=%d", workers, k+1, dispatched, err, ctx.checks)
			}
			for i, r := range ran {
				want := int32(0)
				if i < k {
					want = 1
				}
				if r != want {
					t.Fatalf("workers=%d k=%d: index %d ran %d times, want %d", workers, k, i, r, want)
				}
			}
		}
	}
}

// TestFanOutRunsClaimsConcurrently: with two workers, fn(0) waits for fn(1),
// so the round completes only if two runners hold claims at once — the
// caller does not run the round alone when an index blocks.
func TestFanOutRunsClaimsConcurrently(t *testing.T) {
	oneRan := make(chan struct{})
	dispatched, err := FanOut(context.Background(), 2, 2, func(_ context.Context, i int) {
		if i == 1 {
			close(oneRan)
			return
		}
		select {
		case <-oneRan:
		case <-time.After(10 * time.Second):
			t.Error("fn(0) waited 10 s for fn(1): the round ran on one runner")
		}
	})
	if dispatched != 2 || err != nil {
		t.Fatalf("dispatched=%d err=%v", dispatched, err)
	}
}

func BenchmarkFanOut(b *testing.B) {
	ctx := context.Background()
	fn := func(context.Context, int) {}
	for _, n := range []int{2, 8, 96} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				FanOut(ctx, 2, n, fn)
			}
		})
	}
}

func TestFanOutWorkerCtxPropagatesRealCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sawDone := make(chan struct{})
	done, err := FanOut(ctx, 4, 4, func(wctx context.Context, i int) {
		if i == 0 {
			cancel()
			<-wctx.Done() // the derived context must observe the cancel
			close(sawDone)
		}
	})
	<-sawDone
	// Cancellation races dispatch, so both a full and a partial round are
	// legal; either way the result must say which one it was.
	switch {
	case done < 1 || done > 4:
		t.Fatalf("dispatched %d indices, want 1..4", done)
	case done < 4 && !errors.Is(err, context.Canceled):
		t.Fatalf("partial round (%d of 4) returned err %v, want context.Canceled", done, err)
	case done == 4 && err != nil:
		t.Fatalf("full round returned err %v, want nil", err)
	}
}

func TestHostsQueriedParallelAccounting(t *testing.T) {
	cost := DefaultCostModel()
	servers := make([]netsim.IPv4, 96)
	recs := make([]int, 96)
	for i := range servers {
		servers[i] = netsim.IP(10, 0, 0, byte(i+1))
		recs[i] = i // max exec at the last server
	}
	maxExec := cost.QueryExec + 95*cost.QueryPerRecord

	seq := NewClock(cost, 0)
	seq.HostsQueried("q", servers, recs)
	wantSeq := 96*cost.ConnInit + cost.RTT + maxExec
	if seq.Total() != wantSeq {
		t.Fatalf("sequential: %v, want %v", seq.Total(), wantSeq)
	}

	cost.Parallel = true
	par := NewClock(cost, 0)
	par.HostsQueried("q", servers, recs)
	wantPar := cost.ConnInit + cost.RTT + maxExec
	if par.Total() != wantPar {
		t.Fatalf("parallel: %v, want %v", par.Total(), wantPar)
	}
	par.HostsQueried("q", servers, recs)
	if got := par.Total() - wantPar; got != wantPar {
		t.Fatalf("unpooled parallel repeat round: %v, want %v", got, wantPar)
	}

	// With pooling a repeat round to connected servers skips ConnInit
	// entirely.
	cost.Pooled = true
	pp := NewClock(cost, 0)
	pp.HostsQueried("q", servers, recs)
	if got := pp.Total(); got != wantPar {
		t.Fatalf("pooled+parallel first round: %v, want %v", got, wantPar)
	}
	pp.HostsQueried("q", servers, recs)
	if got := pp.Total() - wantPar; got != cost.RTT+maxExec {
		t.Fatalf("pooled+parallel repeat round: %v, want %v", got, cost.RTT+maxExec)
	}
}

// TestPerHostTimeout asserts a dead host is bounded by PerHostTimeout
// rather than hanging the round.
func TestPerHostTimeout(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-time.After(5 * time.Second): // the answer then ends the call, so the test fails rather than hangs
			t.Error("request still open 5 s in: Call's request does not carry its PerHostTimeout context")
		}
	}))
	defer srv.Close()
	defer close(stall)

	client := NewPooledHTTPClient()
	client.PerHostTimeout = 50 * time.Millisecond
	defer client.CloseIdleConnections()
	_, _, err := client.PullPointers(context.Background(), srv.URL, simtime.EpochRange{})
	if err == nil {
		t.Fatal("stalled host should time out")
	}
}
