package rpc

import (
	"context"
	"errors"
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
// a deterministic mid-round cancellation point. Only the dispatching
// goroutine consults it (workers poll a derived context), so no locking is
// needed even for workers > 1.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
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
	if done > 4 || err == nil && done == 4 {
		// Cancellation raced dispatch; both a full and a partial round are
		// legal — the invariant under test is only Done propagation.
		_ = done
	}
	_ = err
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
		<-stall
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
