package analyzer

import (
	"context"
	"fmt"
	"strconv"

	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
	"switchpointer/internal/trace"
)

// Query is one self-describing request the analyzer can execute through Run.
// The concrete types below cover the paper's five diagnosis procedures; the
// interface is sealed (the unexported method) so dispatch stays exhaustive.
type Query interface {
	// Name is the query's stable kind identifier.
	Name() string
	// validate rejects malformed parameters before any cost is charged.
	validate() error
}

// ContentionQuery debugs a throughput-drop alert: the §5.1
// "too much traffic" procedure (priority contention and microbursts).
type ContentionQuery struct {
	Alert hostagent.Alert
}

// Name implements Query.
func (ContentionQuery) Name() string { return "contention" }

func (ContentionQuery) validate() error { return nil }

// RedLightsQuery debugs accumulated per-switch degradation (§5.2): the same
// pull–prune–query–correlate machinery as ContentionQuery, with the outcome
// classified by spatial correlation across switches.
type RedLightsQuery struct {
	Alert hostagent.Alert
}

// Name implements Query.
func (RedLightsQuery) Name() string { return "red-lights" }

func (RedLightsQuery) validate() error { return nil }

// CascadeQuery chases causality backwards from an alert (§5.3), chaining
// contention rounds through flows that never raised alerts themselves.
type CascadeQuery struct {
	Alert hostagent.Alert
}

// Name implements Query.
func (CascadeQuery) Name() string { return "cascade" }

func (CascadeQuery) validate() error { return nil }

// ImbalanceQuery investigates uneven egress utilization at a switch (§5.4)
// over the given epoch window. At anchors the diagnosis clock in virtual
// time (usually the testbed's current time).
type ImbalanceQuery struct {
	Switch netsim.NodeID
	Window simtime.EpochRange
	At     simtime.Time
}

// Name implements Query.
func (ImbalanceQuery) Name() string { return "load-imbalance" }

func (q ImbalanceQuery) validate() error {
	if q.Window.Lo > q.Window.Hi {
		return fmt.Errorf("analyzer: imbalance query: inverted epoch window %v", q.Window)
	}
	return nil
}

// TopKQuery runs the distributed "top-k flows at a switch" query (§6.2,
// Fig 12), either through the pointer directory (ModeSwitchPointer) or
// against every server (ModePathDump, the baseline).
type TopKQuery struct {
	Switch netsim.NodeID
	K      int
	Window simtime.EpochRange
	Mode   TopKMode
	At     simtime.Time
}

// Name implements Query.
func (TopKQuery) Name() string { return "top-k" }

func (q TopKQuery) validate() error {
	if q.K < 0 {
		return fmt.Errorf("analyzer: top-k query: negative k %d", q.K)
	}
	if q.Window.Lo > q.Window.Hi {
		return fmt.Errorf("analyzer: top-k query: inverted epoch window %v", q.Window)
	}
	return nil
}

// Report is the unified envelope every query kind returns: outcome
// classification, culprits, result payloads, search-radius and cost
// accounting, the consulted-host set, and the virtual-time breakdown.
// Fields irrelevant to a query kind stay at their zero values.
type Report struct {
	// Query is the request this report answers (set by Run).
	Query Query
	// Kind classifies the outcome.
	Kind Kind
	// Alert is the triggering alert for alert-driven queries.
	Alert hostagent.Alert
	// Switch is the interrogated switch for switch-driven queries
	// (load imbalance, top-k).
	Switch netsim.NodeID

	// Culprits across all switches, highest impact first; each names the
	// switch where it contended with the victim (the red-lights spatial
	// correlation).
	Culprits []Culprit
	// Cascade is the causality chain for traffic-cascade outcomes: element
	// i+1 delayed element i; element 0 is the original victim.
	Cascade []netsim.FlowKey

	// Links holds the per-egress-interface flow-size distributions of a
	// load-imbalance investigation.
	Links []LinkDistribution
	// Separated is true when the per-link distributions split cleanly by
	// flow size; Boundary is a size threshold witnessing the separation.
	Separated bool
	Boundary  uint64

	// Flows is the merged top-k answer.
	Flows []hostagent.FlowBytes

	// Search-radius accounting.
	PointerHosts   int // hosts named by the pulled pointers
	PrunedHosts    int // dropped by topology pruning
	HostsContacted int
	// Consulted is the set of end hosts actually queried, sorted.
	Consulted []netsim.IPv4
	// ColdSegments counts flushed segments hosts decoded to answer epoch
	// windows that had aged out of their hot sets (cold read-back). Zero for
	// a diagnosis answered entirely from resident telemetry; when non-zero,
	// the Clock carries the matching extra "cold-read-back" round.
	ColdSegments int
	// ColdSkippedByIndex counts epoch-overlapping cold segments the hosts'
	// manifest indexes excluded without decoding — the archive the diagnosis
	// did NOT have to pay for.
	ColdSkippedByIndex int
	// TieredSegments counts cold segments whose manifests matched but whose
	// payloads were tiered out of cold storage: history the report honestly
	// does not include.
	TieredSegments int

	// Clock carries the virtual-time cost breakdown (Fig 7). It is always
	// non-nil, and holds the partial cost when the query was cancelled.
	Clock *rpc.Clock

	// TraceID identifies the diagnosis trace; Trace is the analyzer-side
	// span tree (root + one span per charged phase). Both stay zero when
	// tracing is disabled.
	TraceID string
	Trace   *trace.Trace

	Conclusion string
}

// Total returns the end-to-end debugging time.
func (r *Report) Total() simtime.Time { return r.Clock.Total() }

// TraceID derives the deterministic trace ID of a query purely from its
// parameters, so the same query yields the same ID whether it runs
// in-memory, over loopback HTTP, or against a real spd trio — which is what
// lets cluster merge the per-role flight-recorder trees.
func TraceID(q Query) string {
	switch q := deref(q).(type) {
	case ContentionQuery:
		return alertTraceID(q.Name(), q.Alert)
	case RedLightsQuery:
		return alertTraceID(q.Name(), q.Alert)
	case CascadeQuery:
		return alertTraceID(q.Name(), q.Alert)
	case ImbalanceQuery:
		return imbalanceTraceID(q)
	case TopKQuery:
		return topkTraceID(q)
	default:
		return ""
	}
}

// deref returns the value a pointer query points to, and any other query
// unchanged, so dispatch lists each of the five kinds once.
func deref(q Query) Query {
	switch q := q.(type) {
	case *ContentionQuery:
		return *q
	case *RedLightsQuery:
		return *q
	case *CascadeQuery:
		return *q
	case *ImbalanceQuery:
		return *q
	case *TopKQuery:
		return *q
	}
	return q
}

func alertTraceID(kind string, a hostagent.Alert) string {
	return trace.NewID(kind, a.Flow.String(),
		strconv.FormatInt(int64(a.DetectedAt), 10), a.Kind.String(), a.Host.String())
}

func imbalanceTraceID(q ImbalanceQuery) string {
	return trace.NewID(q.Name(), strconv.Itoa(int(q.Switch)),
		strconv.FormatInt(int64(q.Window.Lo), 10), strconv.FormatInt(int64(q.Window.Hi), 10),
		strconv.FormatInt(int64(q.At), 10))
}

func topkTraceID(q TopKQuery) string {
	return trace.NewID(q.Name(), strconv.Itoa(int(q.Switch)), strconv.Itoa(q.K),
		strconv.FormatInt(int64(q.Window.Lo), 10), strconv.FormatInt(int64(q.Window.Hi), 10),
		strconv.Itoa(int(q.Mode)), strconv.FormatInt(int64(q.At), 10))
}

// QueryStart returns the virtual time a query's diagnosis clock anchors at:
// the alert's detection time for alert-driven kinds, the query's At for
// switch-driven ones.
func QueryStart(q Query) simtime.Time {
	switch q := deref(q).(type) {
	case ContentionQuery:
		return q.Alert.DetectedAt
	case RedLightsQuery:
		return q.Alert.DetectedAt
	case CascadeQuery:
		return q.Alert.DetectedAt
	case ImbalanceQuery:
		return q.At
	case TopKQuery:
		return q.At
	default:
		return 0
	}
}

// Run executes a query, honouring ctx cancellation and deadlines at every
// phase boundary and host contact. On cancellation it returns the partial
// Report built so far — with the cost actually incurred on its Clock —
// together with ctx.Err(). A nil error means the query ran to completion.
//
// Tracing: unless DisableTracing is set, Run adopts the trace.Recorder on
// ctx (installed by the admission controller) or mints one with the query's
// deterministic TraceID, and every charged clock phase becomes a span; the
// finished trace rides on Report.Trace. Cancellation still closes the trace
// — its spans are exactly the charged (dispatched-prefix) phases.
func (a *Analyzer) Run(ctx context.Context, q Query) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q == nil {
		return nil, fmt.Errorf("analyzer: nil query")
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	var rec *trace.Recorder
	if !a.DisableTracing {
		rec = trace.FromContext(ctx)
		if rec == nil {
			rec = trace.NewRecorder(TraceID(q), "analyzer", q.Name())
			ctx = trace.NewContext(ctx, rec)
		}
	}
	var (
		rep *Report
		err error
	)
	switch q := deref(q).(type) {
	case ContentionQuery:
		rep, err = a.diagnoseContention(ctx, q.Alert)
	case RedLightsQuery:
		rep, err = a.diagnoseContention(ctx, q.Alert)
	case CascadeQuery:
		rep, err = a.diagnoseCascade(ctx, q.Alert)
	case ImbalanceQuery:
		rep, err = a.diagnoseImbalance(ctx, q)
	case TopKQuery:
		rep, err = a.topK(ctx, q)
	default:
		return nil, fmt.Errorf("analyzer: unknown query type %T", q)
	}
	rep.Query = q
	if rec != nil && rep != nil {
		rec.Finish(rep.Clock.Now())
		t := rec.Trace()
		rep.TraceID = rec.ID()
		rep.Trace = &t
	}
	return rep, err
}

// cancelled marks a report as cut short by ctx and returns it with the
// context's error. Call only from a checkpoint where ctx.Err() is non-nil.
func cancelled(rep *Report, ctx context.Context, during string) (*Report, error) {
	err := ctx.Err()
	rep.Conclusion = fmt.Sprintf("query cancelled during %s: %v", during, err)
	return rep, err
}

// chargePartial truncates the consulted set to the hosts actually queried
// before a mid-query cancellation and charges them to the clock, so the
// partial Report carries exactly the cost incurred.
func chargePartial(rep *Report, phase string, hosts []netsim.IPv4, recCounts []int) {
	rep.Consulted = hosts[:len(recCounts)]
	rep.HostsContacted = len(recCounts)
	rep.Clock.HostsQueried(phase, rep.Consulted, recCounts)
}

// aborted marks a report as cut short by either ctx or a backend failure,
// whichever actually happened, and returns the corresponding error so a
// failed directory backend is never misreported as a clean completion.
func aborted(rep *Report, ctx context.Context, err error, during string) (*Report, error) {
	if ctx.Err() != nil {
		return cancelled(rep, ctx, during)
	}
	rep.Conclusion = fmt.Sprintf("%s failed: %v", during, err)
	return rep, err
}
