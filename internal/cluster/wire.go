package cluster

import (
	"fmt"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
)

// QueryEnvelope is the JSON wire form of an analyzer.Query — the body of
// POST /diagnose. Kind selects the query type (the Query.Name values);
// the remaining fields carry that kind's parameters and the rest stay at
// their zero values.
type QueryEnvelope struct {
	Kind string `json:"kind"`

	// Alert parameterizes the alert-driven kinds (contention, red-lights,
	// cascade).
	Alert *hostagent.Alert `json:"alert,omitempty"`

	// Switch/Window/At parameterize the switch-driven kinds (load-imbalance,
	// top-k); K and Mode are top-k only.
	Switch netsim.NodeID      `json:"switch,omitempty"`
	K      int                `json:"k,omitempty"`
	Window simtime.EpochRange `json:"window,omitzero"`
	Mode   analyzer.TopKMode  `json:"mode,omitempty"`
	At     simtime.Time       `json:"at,omitempty"`

	// TraceID, when set, pins the diagnosis trace ID instead of letting the
	// analyzer derive it from the query (they coincide for well-formed
	// clients, since spctl derives it the same way). /diagnose refuses one
	// that trace.ValidID does not accept: the X-SP-Trace header and the
	// /traces/<id> path must carry it unescaped.
	TraceID string `json:"trace_id,omitempty"`
}

// Envelope wraps an analyzer.Query in its wire form.
func Envelope(q analyzer.Query) (QueryEnvelope, error) {
	switch q := q.(type) {
	case analyzer.ContentionQuery:
		return QueryEnvelope{Kind: q.Name(), Alert: &q.Alert}, nil
	case *analyzer.ContentionQuery:
		return Envelope(*q)
	case analyzer.RedLightsQuery:
		return QueryEnvelope{Kind: q.Name(), Alert: &q.Alert}, nil
	case *analyzer.RedLightsQuery:
		return Envelope(*q)
	case analyzer.CascadeQuery:
		return QueryEnvelope{Kind: q.Name(), Alert: &q.Alert}, nil
	case *analyzer.CascadeQuery:
		return Envelope(*q)
	case analyzer.ImbalanceQuery:
		return QueryEnvelope{Kind: q.Name(), Switch: q.Switch, Window: q.Window, At: q.At}, nil
	case *analyzer.ImbalanceQuery:
		return Envelope(*q)
	case analyzer.TopKQuery:
		return QueryEnvelope{Kind: q.Name(), Switch: q.Switch, K: q.K, Window: q.Window, Mode: q.Mode, At: q.At}, nil
	case *analyzer.TopKQuery:
		return Envelope(*q)
	default:
		return QueryEnvelope{}, fmt.Errorf("cluster: unknown query type %T", q)
	}
}

// Query unwraps the envelope into the analyzer.Query it names.
func (e QueryEnvelope) Query() (analyzer.Query, error) {
	alert := func() (hostagent.Alert, error) {
		if e.Alert == nil {
			return hostagent.Alert{}, fmt.Errorf("cluster: %q query without an alert", e.Kind)
		}
		return *e.Alert, nil
	}
	switch e.Kind {
	case analyzer.ContentionQuery{}.Name():
		a, err := alert()
		return analyzer.ContentionQuery{Alert: a}, err
	case analyzer.RedLightsQuery{}.Name():
		a, err := alert()
		return analyzer.RedLightsQuery{Alert: a}, err
	case analyzer.CascadeQuery{}.Name():
		a, err := alert()
		return analyzer.CascadeQuery{Alert: a}, err
	case analyzer.ImbalanceQuery{}.Name():
		return analyzer.ImbalanceQuery{Switch: e.Switch, Window: e.Window, At: e.At}, nil
	case analyzer.TopKQuery{}.Name():
		return analyzer.TopKQuery{Switch: e.Switch, K: e.K, Window: e.Window, Mode: e.Mode, At: e.At}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown query kind %q", e.Kind)
	}
}

// WireReport is the JSON wire form of an analyzer.Report: every
// result-bearing field plus the clock's phase breakdown and round counters
// flattened into plain values. Two reports are equivalent exactly when
// their WireReports marshal to identical bytes — the e2e equivalence gate's
// definition of "byte-identical".
type WireReport struct {
	Kind       analyzer.Kind `json:"kind"`
	Conclusion string        `json:"conclusion"`

	Alert  *hostagent.Alert `json:"alert,omitempty"`
	Switch netsim.NodeID    `json:"switch,omitempty"`

	// Culprits and Flows, the per-flow lists, are columns: one base64 string
	// each (column.go). Cascade and Links hold a handful of entries and stay
	// JSON objects.
	Culprits  CulpritColumn               `json:"culprits,omitempty"`
	Cascade   []netsim.FlowKey            `json:"cascade,omitempty"`
	Links     []analyzer.LinkDistribution `json:"links,omitempty"`
	Separated bool                        `json:"separated,omitempty"`
	Boundary  uint64                      `json:"boundary,omitempty"`
	Flows     FlowColumn                  `json:"flows,omitempty"`

	PointerHosts   int           `json:"pointer_hosts"`
	PrunedHosts    int           `json:"pruned_hosts"`
	HostsContacted int           `json:"hosts_contacted"`
	Consulted      []netsim.IPv4 `json:"consulted,omitempty"`
	ColdSegments   int           `json:"cold_segments,omitempty"`
	// ColdSkippedByIndex / TieredSegments: cold-tier index accounting —
	// segments excluded without decoding, and segments whose payloads aged
	// out of cold storage entirely.
	ColdSkippedByIndex int `json:"cold_skipped_by_index,omitempty"`
	TieredSegments     int `json:"tiered_segments,omitempty"`

	// Virtual-time cost accounting, flattened from the report's Clock.
	Phases          []rpc.Phase  `json:"phases,omitempty"`
	TotalVirtual    simtime.Time `json:"total_virtual_ns"`
	PointerRounds   int          `json:"pointer_rounds"`
	PointersCharged int          `json:"pointers_charged"`
	QueryRounds     int          `json:"query_rounds"`
	ColdRounds      int          `json:"cold_rounds,omitempty"`

	// TraceID names the diagnosis trace held in the daemons' flight
	// recorders (GET /traces/<id>); empty when tracing was disabled.
	TraceID string `json:"trace_id,omitempty"`
}

// WireFromReport flattens a Report (including its Clock) into wire form.
func WireFromReport(r *analyzer.Report) *WireReport {
	if r == nil {
		return nil
	}
	w := &WireReport{
		Kind:               r.Kind,
		Conclusion:         r.Conclusion,
		Switch:             r.Switch,
		Culprits:           r.Culprits,
		Cascade:            r.Cascade,
		Links:              r.Links,
		Separated:          r.Separated,
		Boundary:           r.Boundary,
		Flows:              r.Flows,
		PointerHosts:       r.PointerHosts,
		PrunedHosts:        r.PrunedHosts,
		HostsContacted:     r.HostsContacted,
		Consulted:          r.Consulted,
		ColdSegments:       r.ColdSegments,
		ColdSkippedByIndex: r.ColdSkippedByIndex,
		TieredSegments:     r.TieredSegments,
	}
	if r.Alert.Flow != (netsim.FlowKey{}) || r.Alert.Kind != 0 {
		alert := r.Alert
		w.Alert = &alert
	}
	if r.Clock != nil {
		w.Phases = r.Clock.Phases()
		w.TotalVirtual = r.Clock.Total()
		w.PointerRounds = r.Clock.PointerRounds()
		w.PointersCharged = r.Clock.PointersCharged()
		w.QueryRounds = r.Clock.QueryRounds()
		w.ColdRounds = r.Clock.ColdRounds()
	}
	w.TraceID = r.TraceID
	return w
}

// Total returns the end-to-end virtual debugging time.
func (w *WireReport) Total() simtime.Time { return w.TotalVirtual }
