package rpc

import (
	"context"
	"runtime"
	"sync"
)

// DefaultFanOutWorkers is the fan-out width used when a caller passes a
// non-positive worker count: one worker per CPU, capped so a huge machine
// does not spawn hundreds of goroutines for a 96-host query round.
func DefaultFanOutWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	if n < 1 {
		n = 1
	}
	return n
}

// FanOut runs fn(i) for every index in [0, n) on a bounded pool of workers
// and waits for all dispatched work to finish. It is the shared concurrency
// primitive behind the analyzer's per-host query rounds, for both the
// virtual-time backend and the HTTP binding.
//
// The contract is built for deterministic results and deterministic partial
// cost under cancellation:
//
//   - Dispatch is sequential in index order on the calling goroutine, and
//     ctx.Err is consulted exactly once before each dispatch — the same
//     one-check-per-item cadence as a sequential loop. The set of dispatched
//     indices is therefore always a prefix of [0, n).
//   - Every dispatched index runs to completion before FanOut returns, so
//     callers can merge per-index results in index order afterwards — worker
//     scheduling never influences the outcome, only the wall-clock time.
//   - Workers receive a context derived from ctx (cancelled when FanOut
//     returns); real deadline/cancel signals propagate to in-flight work via
//     Done, but worker-side Err polls do not consume checks on the caller's
//     context.
//
// fn must be safe to call concurrently for distinct indices. With one worker
// (or n ≤ 1) everything runs inline on the caller's goroutine and fn
// receives ctx itself — byte-for-byte the sequential semantics.
//
// FanOut returns the number of dispatched indices and ctx.Err() as observed
// at the dispatch checkpoint that stopped early, if any.
func FanOut(ctx context.Context, workers, n int, fn func(ctx context.Context, i int)) (dispatched int, err error) {
	if n <= 0 {
		return 0, nil
	}
	if workers <= 0 {
		workers = DefaultFanOutWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return i, err
			}
			fn(ctx, i)
		}
		return n, nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	idx := make(chan int)
	worker := func() {
		defer wg.Done()
		for i := range idx {
			fn(runCtx, i)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	for dispatched = 0; dispatched < n; dispatched++ {
		if err = ctx.Err(); err != nil {
			break
		}
		idx <- dispatched
	}
	close(idx)
	wg.Wait()
	return dispatched, err
}
