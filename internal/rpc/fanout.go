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
// virtual-time backend and the HTTP binding. The caller is one of the
// workers, and it waits only for indices some worker claimed: a round of
// tiny in-process asks can finish on the caller before any helper runs.
//
// The contract is built for deterministic results and deterministic partial
// cost under cancellation:
//
//   - Indices are claimed in index order, one claim at a time under a lock
//     shared by the caller and its helpers, and ctx.Err is consulted exactly
//     once before each claim — the same one-check-per-item cadence as a
//     sequential loop. The set of dispatched indices is therefore always a
//     prefix of [0, n).
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
	r := &fanRound{ctx: ctx, runCtx: runCtx, n: n, fn: fn}
	for w := 1; w < workers; w++ {
		go r.run()
	}
	r.run()
	// Wait only for indices someone claimed: a helper that starts after the
	// last claim finds nothing left and exits without being waited for.
	r.wg.Wait()
	return r.next, r.err
}

// fanRound is one FanOut round with workers > 1: the caller and its helper
// goroutines each claim the next index under mu until none is left or ctx
// has stopped the round.
type fanRound struct {
	mu     sync.Mutex
	wg     sync.WaitGroup // one count per claimed index
	ctx    context.Context
	runCtx context.Context
	n      int
	fn     func(ctx context.Context, i int)
	next   int   // the next index to claim; the dispatched count at the end
	err    error // ctx.Err from the claim that stopped the round
}

// run claims and runs indices until the round is exhausted or stopped.
func (r *fanRound) run() {
	for {
		i, ok := r.claim()
		if !ok {
			return
		}
		r.fn(r.runCtx, i)
		r.wg.Done()
	}
}

// claim takes the next index, consulting ctx.Err once first. Once every
// index is claimed or a check fails, no later claim consults ctx again, so
// no Err call happens after the caller has stopped claiming.
func (r *fanRound) claim() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next >= r.n || r.err != nil {
		return 0, false
	}
	if err := r.ctx.Err(); err != nil {
		r.err = err
		return 0, false
	}
	r.wg.Add(1)
	r.next++
	return r.next - 1, true
}
