// Package rpc models and implements the control communication between the
// analyzer, switch agents, and host agents.
//
// It has two halves:
//
//   - A virtual-time cost model (this file) substituting for the paper's
//     flask-based agents. The paper's §6.2 analysis shows diagnosis latency
//     is dominated by *sequential per-server connection initiation* (the
//     analyzer spawns one thread per server on demand); pooling connections
//     is the suggested optimization. The cost model reproduces exactly that
//     structure so Figs 7, 8 and 12 can be regenerated, and exposes the
//     pooled mode as an ablation.
//
//   - A real JSON-over-HTTP binding (http.go) of the same query interfaces,
//     run over net/http, demonstrating the system end-to-end as an actual
//     distributed service.
package rpc

import (
	"context"
	"fmt"
	"strconv"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/trace"
)

// PhaseColdReadBack names the clock phase charged for cold-segment
// read-back rounds; the Clock counts them (ColdRounds) so traces and
// /metrics agree on the same denominator.
const PhaseColdReadBack = "cold-read-back"

// CostModel parameterizes the virtual-time communication costs, calibrated
// to the latencies the paper reports (§5, §6.2).
type CostModel struct {
	// AlertSend is the host→analyzer alert + acknowledgment time
	// (paper: 2–3 ms).
	AlertSend simtime.Time
	// PointerPull is the time to retrieve pointers from one switch
	// (paper: 7–8 ms).
	PointerPull simtime.Time
	// PointerPullExtra is the marginal cost per additional switch pulled in
	// the same round (pulls overlap; the red-lights case fetches from three
	// switches in ~10 ms).
	PointerPullExtra simtime.Time
	// ConnInit is the per-server connection-initiation cost: flask's
	// on-demand thread creation plus TCP/HTTP setup. Paid SEQUENTIALLY per
	// contacted server (paper's §6.2 bottleneck).
	ConnInit simtime.Time
	// RTT is one request/response network round trip.
	RTT simtime.Time
	// QueryExec is the base query execution time at a host.
	QueryExec simtime.Time
	// QueryPerRecord is the marginal execution time per record scanned.
	QueryPerRecord simtime.Time

	// Pooled switches the analyzer to a connection pool: ConnInit is paid
	// only on first contact with a server (the paper's proposed fix).
	Pooled bool

	// Parallel switches query-round accounting from the paper's sequential
	// per-server model to the concurrent fan-out the analyzer actually runs:
	// connections to all first-contact servers initiate concurrently, so a
	// round costs ConnInit (once, if any server is new) + RTT + max(exec)
	// instead of Σ ConnInit + RTT + max(exec). Keep it false to reproduce
	// the paper's §6.2 sequential-bottleneck curves (Figs 7, 8, 12); set it
	// (typically together with Pooled) for the parallel ablation.
	Parallel bool
}

// DefaultCostModel returns costs calibrated to the paper's measurements:
// ~3 ms alert, 7.5 ms single-switch pointer retrieval, and ≈3.3 ms/server
// sequential connection initiation (which yields PathDump's ≈0.35 s at 96
// servers in Fig 12 and the ≈400 ms load-imbalance diagnosis at 96 relevant
// servers in Fig 8).
func DefaultCostModel() CostModel {
	return CostModel{
		AlertSend:        2500 * simtime.Microsecond,
		PointerPull:      7500 * simtime.Microsecond,
		PointerPullExtra: 1250 * simtime.Microsecond,
		ConnInit:         3300 * simtime.Microsecond,
		RTT:              250 * simtime.Microsecond,
		QueryExec:        800 * simtime.Microsecond,
		QueryPerRecord:   2 * simtime.Microsecond,
	}
}

// Validate checks the model.
func (c CostModel) Validate() error {
	if c.AlertSend < 0 || c.PointerPull < 0 || c.ConnInit < 0 || c.RTT < 0 ||
		c.QueryExec < 0 || c.QueryPerRecord < 0 || c.PointerPullExtra < 0 {
		return fmt.Errorf("rpc: negative cost")
	}
	return nil
}

// Clock tracks the analyzer's position in virtual time as a diagnosis
// proceeds, together with a per-phase breakdown ledger and round counters
// that let tests assert *how* a cost was incurred (batched vs sequential)
// independently of the virtual-time total.
//
// Servers are keyed by address. The set of servers holding a pooled
// connection exists only when the cost model is Pooled, the one mode that
// reads it; otherwise a query round allocates nothing for its ledger. The
// phase ledger has inline room for a typical diagnosis, so NewClock is one
// allocation.
type Clock struct {
	cost      CostModel
	now       simtime.Time
	connected map[netsim.IPv4]bool // servers with pooled connections; nil unless cost.Pooled
	phases    []Phase

	pullRounds   int // batched pointer-pull rounds (PointersPulled calls)
	pullsCharged int // individual switch pulls across all rounds
	queryRounds  int // host query rounds (HostsQueried calls)
	coldRounds   int // cold read-back rounds (PhaseColdReadBack charges)

	rec *trace.Recorder // when set, every charge also emits a span

	phaseBuf [8]Phase // phases' initial backing array
}

// Phase is one named span of a diagnosis timeline.
type Phase struct {
	Name     string
	Duration simtime.Time
}

// NewClock starts an analyzer clock at the given virtual time.
func NewClock(cost CostModel, start simtime.Time) *Clock {
	c := &Clock{cost: cost, now: start}
	c.phases = c.phaseBuf[:0]
	if cost.Pooled {
		c.connected = make(map[netsim.IPv4]bool)
	}
	return c
}

// Now returns the analyzer's current virtual time.
func (c *Clock) Now() simtime.Time { return c.now }

// Phases returns the recorded per-phase breakdown.
func (c *Clock) Phases() []Phase { return c.phases }

// PhaseTotal returns the summed duration of phases with the given name.
func (c *Clock) PhaseTotal(name string) simtime.Time {
	var total simtime.Time
	for _, p := range c.phases {
		if p.Name == name {
			total += p.Duration
		}
	}
	return total
}

// Total returns the summed duration of all phases.
func (c *Clock) Total() simtime.Time {
	var total simtime.Time
	for _, p := range c.phases {
		total += p.Duration
	}
	return total
}

// spend advances the clock and records a phase (and, when tracing is
// armed, the matching span). The charge sequence within a procedure is
// sequential, so span ordinals are deterministic.
func (c *Clock) spend(name string, d simtime.Time) {
	if d < 0 {
		d = 0
	}
	start := c.now
	c.now += d
	c.phases = append(c.phases, Phase{Name: name, Duration: d})
	if name == PhaseColdReadBack {
		c.coldRounds++
	}
	if c.rec != nil {
		c.rec.Phase(name, start, c.now)
	}
}

// Trace arms span emission: every subsequent charge becomes a child span
// on rec, anchored at the clock's current virtual time. A nil rec is a
// no-op, so callers can pass trace.FromContext(ctx) unconditionally.
func (c *Clock) Trace(rec *trace.Recorder) {
	c.rec = rec
	if rec != nil {
		rec.Anchor(c.now)
	}
}

// RemoteCtx attaches the outbound trace context for requests issued in the
// round about to be charged: child spans emitted by the daemons that serve
// those requests parent under the next phase ordinal at the clock's current
// virtual time. Without an armed recorder it returns ctx unchanged.
func (c *Clock) RemoteCtx(ctx context.Context) context.Context {
	if c.rec == nil {
		return ctx
	}
	return trace.ContextWithRemote(ctx, trace.RemoteContext{
		TraceID: c.rec.ID(),
		Parent:  c.rec.NextPhaseID(),
		At:      c.now,
	})
}

// ColdRounds returns how many cold read-back rounds have been charged.
func (c *Clock) ColdRounds() int { return c.coldRounds }

// Spend records an explicitly-costed phase (e.g. detection latency measured
// by the host trigger).
func (c *Clock) Spend(name string, d simtime.Time) { c.spend(name, d) }

// AlertDelivered accounts the host→analyzer alert hop.
func (c *Clock) AlertDelivered() { c.spend("alert", c.cost.AlertSend) }

// PointersPulled accounts retrieving pointers from n switches in one
// overlapping (batched) round: the first pull costs PointerPull, each
// additional switch in the round only the marginal PointerPullExtra. One
// call = one round trip; Analyzer.pullCandidates issues exactly one per
// alert since the pulls go through Directory.HostsBatch.
func (c *Clock) PointersPulled(n int) {
	if n <= 0 {
		return
	}
	c.pullRounds++
	c.pullsCharged += n
	d := c.cost.PointerPull + simtime.Time(n-1)*c.cost.PointerPullExtra
	c.spend("pointer-retrieval", d)
	if c.rec != nil {
		c.rec.AnnotateLast(trace.Attr{Key: "switches", Value: strconv.Itoa(n)})
	}
}

// PointerRounds returns how many batched pointer-pull round trips have been
// charged, and PointersCharged how many individual switch pulls they
// covered. The batching invariant the analyzer maintains is one round per
// alert regardless of path length.
func (c *Clock) PointerRounds() int { return c.pullRounds }

// PointersCharged returns the number of individual switch pulls charged
// across all rounds.
func (c *Clock) PointersCharged() int { return c.pullsCharged }

// QueryRounds returns how many host query rounds have been charged.
func (c *Clock) QueryRounds() int { return c.queryRounds }

// HostsQueried accounts one query round to the given servers, where server i
// scans recs[i] records. Execution and responses overlap across servers.
// Connection initiation is sequential per server, the paper's §6.2 model;
// under the cost model's Parallel flag all first-contact connections
// initiate concurrently, so ConnInit is paid once per round instead. When
// pooled, only servers not yet connected pay it at all.
func (c *Clock) HostsQueried(phase string, servers []netsim.IPv4, recs []int) {
	if len(servers) == 0 {
		return
	}
	c.queryRounds++
	var init simtime.Time
	for _, s := range servers {
		if c.cost.Pooled {
			if c.connected[s] {
				continue
			}
			c.connected[s] = true
		}
		if c.cost.Parallel {
			init = c.cost.ConnInit // overlapped: one initiation covers the round
		} else {
			init += c.cost.ConnInit
		}
	}
	c.spend(phase, init+c.cost.RTT+c.maxExec(servers, recs))
	c.annotateRound(servers, recs)
}

// annotateRound labels the just-charged query-round span with its fan-out.
func (c *Clock) annotateRound(servers []netsim.IPv4, recs []int) {
	if c.rec == nil {
		return
	}
	total := 0
	for _, n := range recs {
		total += n
	}
	c.rec.AnnotateLast(
		trace.Attr{Key: "servers", Value: strconv.Itoa(len(servers))},
		trace.Attr{Key: "records", Value: strconv.Itoa(total)},
	)
}

// maxExec returns the slowest per-server execution time of a round.
func (c *Clock) maxExec(servers []netsim.IPv4, recs []int) simtime.Time {
	var max simtime.Time
	for i := range servers {
		n := 0
		if i < len(recs) {
			n = recs[i]
		}
		exec := c.cost.QueryExec + simtime.Time(n)*c.cost.QueryPerRecord
		if exec > max {
			max = exec
		}
	}
	return max
}
