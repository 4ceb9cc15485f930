// Package cluster is SwitchPointer's service plane: the pieces that turn
// the analyzer + agents into a deployable distributed system. It provides
//
//   - Admission, a multi-query admission controller that bounds concurrent
//     Analyzer.Run calls and queues overflow FIFO, alert-driven diagnoses
//     ahead of switch investigations (the DCM-style coordination of many
//     concurrent monitoring tasks over one vantage-point fleet);
//   - the JSON wire forms of analyzer queries and reports (wire.go) and the
//     analyzer service endpoint POST /diagnose that speaks them
//     (service.go), plus the matching Client;
//   - a loopback-cluster launcher (loopback.go) that serves a whole
//     testbed's agents and an admission-controlled remote-backend analyzer
//     over 127.0.0.1 HTTP — the fixture behind the spd daemons' tests and
//     the e2e equivalence gate;
//   - the deterministic named scenarios (scenario.go) shared by the spd
//     daemons and spctl --remote, so every process of a cluster can rebuild
//     identical state from a scenario name.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/trace"
)

// Typed admission outcomes. Callers distinguish "try later" (ErrRejected:
// the queue was full on arrival) from "waited too long" (ErrExpired: the
// configured queue wait elapsed before a slot freed).
var (
	ErrRejected = errors.New("cluster: admission queue full")
	ErrExpired  = errors.New("cluster: admission queue wait expired")
)

// Runner executes one analyzer query; *analyzer.Analyzer satisfies it.
type Runner interface {
	Run(ctx context.Context, q analyzer.Query) (*analyzer.Report, error)
}

// AdmissionConfig tunes the controller. Zero values select the defaults.
type AdmissionConfig struct {
	// MaxInFlight bounds concurrently executing queries (default 4). The
	// sharded host stores and per-switch pull locks make any bound safe;
	// the bound is a throughput/latency knob, measured by the
	// diagnosis-throughput experiment at 1/4/16.
	MaxInFlight int
	// MaxQueued bounds waiters beyond the in-flight set (default 64). A
	// query arriving with the queue full is rejected with ErrRejected.
	MaxQueued int
	// QueueWait bounds how long a query may wait for a slot (0 = only the
	// query's own ctx bounds it). A waiter that outlives it fails with
	// ErrExpired.
	QueueWait time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	return c
}

// Queue priority classes: FIFO within a class, lower value served first.
const (
	prioAlert      = iota // alert-driven diagnoses (contention, red lights, cascade)
	prioBackground        // switch-driven investigations (imbalance, top-k)
	numPriorities
)

// priorityOf classifies a query for the overflow queue: alert-driven
// diagnoses ahead of operator-initiated switch investigations.
func priorityOf(q analyzer.Query) int {
	switch q.(type) {
	case analyzer.ContentionQuery, *analyzer.ContentionQuery,
		analyzer.RedLightsQuery, *analyzer.RedLightsQuery,
		analyzer.CascadeQuery, *analyzer.CascadeQuery:
		return prioAlert
	default:
		return prioBackground
	}
}

// AdmissionStats is a snapshot of the controller's counters.
type AdmissionStats struct {
	// Admitted counts queries that started executing (immediately or after
	// queueing).
	Admitted uint64 `json:"admitted"`
	// Rejected counts queries refused because the queue was full.
	Rejected uint64 `json:"rejected"`
	// Expired counts waiters that hit the QueueWait bound.
	Expired uint64 `json:"expired"`
	// Cancelled counts waiters whose ctx ended before a slot freed.
	Cancelled uint64 `json:"cancelled"`
	// InFlight is the number of queries executing right now.
	InFlight int `json:"in_flight"`
	// Queued is the number of queries waiting right now.
	Queued int `json:"queued"`
}

// waiter is one queued query; grant is closed (under the mutex) when a slot
// is transferred to it.
type waiter struct {
	grant chan struct{}
}

// Admission bounds concurrent Runner.Run calls. Queries beyond MaxInFlight
// queue FIFO within two priority classes (alert-driven diagnoses first,
// switch investigations second); overflow beyond MaxQueued is rejected with
// ErrRejected, waiters honour their ctx and the configured QueueWait
// (ErrExpired). All methods are safe for concurrent use.
type Admission struct {
	run Runner
	cfg AdmissionConfig

	mu       sync.Mutex
	inflight int
	queued   int
	queues   [numPriorities][]*waiter

	admitted  uint64
	rejected  uint64
	expired   uint64
	cancelled uint64

	// obs holds the attached metric instruments (nil until Observe). An
	// atomic pointer so Run never takes a lock just to find out the
	// controller is uninstrumented.
	obs atomic.Pointer[admissionObs]

	// Flight, when set, arms tracing: every admitted query records into a
	// trace.Recorder (queue wait included) whose finished trace lands here.
	// Set before serving; must not change while Runs are in flight.
	Flight *trace.FlightRecorder
}

// NewAdmission wraps a Runner (typically *analyzer.Analyzer) in an
// admission controller.
func NewAdmission(run Runner, cfg AdmissionConfig) *Admission {
	return &Admission{run: run, cfg: cfg.withDefaults()}
}

// Config returns the effective (defaulted) configuration.
func (ad *Admission) Config() AdmissionConfig { return ad.cfg }

// Stats returns a snapshot of the counters.
func (ad *Admission) Stats() AdmissionStats {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	return AdmissionStats{
		Admitted:  ad.admitted,
		Rejected:  ad.rejected,
		Expired:   ad.expired,
		Cancelled: ad.cancelled,
		InFlight:  ad.inflight,
		Queued:    ad.queued,
	}
}

// queueDepths snapshots the per-priority-class waiter counts.
func (ad *Admission) queueDepths() [numPriorities]int {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	var depths [numPriorities]int
	for p := 0; p < numPriorities; p++ {
		depths[p] = len(ad.queues[p])
	}
	return depths
}

// Run executes q through the wrapped Runner, subject to admission control:
// it starts immediately when a slot is free, waits FIFO within its priority
// class otherwise, and fails with a typed error when the queue is full
// (ErrRejected), the wait bound elapses (ErrExpired), or the ctx ends while
// queued (ctx.Err()). Once admitted, cancellation semantics are the wrapped
// Runner's own (Analyzer.Run returns the partial report with the cost
// incurred).
func (ad *Admission) Run(ctx context.Context, q analyzer.Query) (*analyzer.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ad.mu.Lock()
	if ad.inflight < ad.cfg.MaxInFlight {
		ad.inflight++
		ad.admitted++
		ad.mu.Unlock()
		return ad.exec(ctx, q, 0)
	}
	if ad.queued >= ad.cfg.MaxQueued {
		ad.rejected++
		ad.mu.Unlock()
		return nil, fmt.Errorf("%w (%d in flight, %d queued)", ErrRejected, ad.cfg.MaxInFlight, ad.cfg.MaxQueued)
	}
	w := &waiter{grant: make(chan struct{})}
	prio := priorityOf(q)
	ad.queues[prio] = append(ad.queues[prio], w)
	ad.queued++
	ad.mu.Unlock()

	waitStart := time.Now()
	var expire <-chan time.Time
	if ad.cfg.QueueWait > 0 {
		t := time.NewTimer(ad.cfg.QueueWait)
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-w.grant:
		// The releasing query transferred its slot (and counted the
		// admission) under the mutex.
		wait := time.Since(waitStart)
		ad.observeQueueWait(prio, wait)
		return ad.exec(ctx, q, wait)
	case <-ctx.Done():
		if ad.abandon(prio, w, &ad.cancelled) {
			return nil, ctx.Err()
		}
		// A grant raced in: we own a slot but the caller is gone. The grant
		// already counted an admission for a query that will never execute —
		// reclassify it as cancelled, then hand the slot on.
		ad.mu.Lock()
		ad.admitted--
		ad.cancelled++
		ad.mu.Unlock()
		ad.release()
		return nil, ctx.Err()
	case <-expire:
		if ad.abandon(prio, w, &ad.expired) {
			return nil, fmt.Errorf("%w (after %v)", ErrExpired, ad.cfg.QueueWait)
		}
		// Granted at the deadline boundary: the slot is ours, so run.
		wait := time.Since(waitStart)
		ad.observeQueueWait(prio, wait)
		return ad.exec(ctx, q, wait)
	}
}

// observeQueueWait records how long a queued query waited for its slot.
func (ad *Admission) observeQueueWait(prio int, wait time.Duration) {
	o := ad.obs.Load()
	if o == nil {
		return
	}
	o.queueWait.With(priorityName(prio)).Observe(wait.Seconds())
}

// exec runs an admitted query and releases its slot afterwards, recording
// the diagnosis outcome when instruments are attached. wait is how long the
// query sat in the overflow queue (zero when admitted immediately).
func (ad *Admission) exec(ctx context.Context, q analyzer.Query, wait time.Duration) (*analyzer.Report, error) {
	defer ad.release()
	if ad.Flight != nil {
		rec := trace.FromContext(ctx)
		if rec == nil {
			rec = trace.NewRecorder(analyzer.TraceID(q), "analyzer", q.Name())
			ctx = trace.NewContext(ctx, rec)
		}
		// Anchor at the query's own virtual start so the queue-wait span
		// sits at the root's opening instant — it is virtual-instant (the
		// clock never charges admission delay); the real wall wait rides
		// along only as the exempt Wall annotation, which Canonical strips.
		anchor := analyzer.QueryStart(q)
		rec.Anchor(anchor)
		rec.Record(trace.Span{
			ID: "adm", Parent: "0", Name: "queue-wait", Role: "analyzer",
			Start: anchor, End: anchor, Wall: wait.Nanoseconds(),
		})
	}
	o := ad.obs.Load()
	var rep *analyzer.Report
	var err error
	if o == nil {
		rep, err = ad.run.Run(ctx, q)
	} else {
		start := time.Now()
		rep, err = ad.run.Run(ctx, q)
		o.recordDiagnosis(q, rep, err, time.Since(start))
	}
	if ad.Flight != nil && rep != nil && rep.Trace != nil {
		ad.Flight.Add(*rep.Trace)
	}
	return rep, err
}

// abandon removes a still-queued waiter, bumping the given counter, and
// reports whether the waiter was still queued (false means a grant already
// transferred a slot to it).
func (ad *Admission) abandon(prio int, w *waiter, counter *uint64) bool {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	qs := ad.queues[prio]
	for i, cand := range qs {
		if cand == w {
			ad.queues[prio] = append(qs[:i], qs[i+1:]...)
			ad.queued--
			*counter++
			return true
		}
	}
	return false
}

// release frees one slot: the highest-priority oldest waiter inherits it,
// otherwise the in-flight count drops.
func (ad *Admission) release() {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	for prio := 0; prio < numPriorities; prio++ {
		if len(ad.queues[prio]) == 0 {
			continue
		}
		w := ad.queues[prio][0]
		ad.queues[prio] = ad.queues[prio][1:]
		ad.queued--
		ad.admitted++
		close(w.grant) // slot transfers; inflight stays constant
		return
	}
	ad.inflight--
}
