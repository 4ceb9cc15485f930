package cluster

import (
	"context"
	"errors"
	"net/http"

	"switchpointer/internal/rpc"
	"switchpointer/internal/trace"
)

// FetchTraceIndex pulls one daemon's GET /traces index — its role, the trace
// IDs currently in its flight recorder, and (on the analyzer) its peers'
// roots for walking the rest of the trio.
func FetchTraceIndex(ctx context.Context, hc *http.Client, baseURL string) (trace.Index, error) {
	var idx trace.Index
	err := rpc.NewHTTPClient(hc).Call(ctx, baseURL+"/traces", nil, &idx, rpc.LimitReport)
	return idx, err
}

// FetchTrace pulls one trace by ID from a daemon's flight recorder. A 404
// (the daemon never saw the trace, or it was evicted) returns ok=false with
// no error, so callers can probe every daemon and merge what answers.
func FetchTrace(ctx context.Context, hc *http.Client, baseURL, id string) (trace.Trace, bool, error) {
	var t trace.Trace
	err := rpc.NewHTTPClient(hc).Call(ctx, baseURL+"/traces/"+id, nil, &t, rpc.LimitReport)
	var se *rpc.StatusError
	if errors.As(err, &se) && se.Code == http.StatusNotFound {
		return t, false, nil
	}
	return t, err == nil, err
}

// MergeTraces folds per-daemon views of the same trace into one canonical
// tree: spans deduplicate by ID (first daemon wins — span IDs are globally
// deterministic, so duplicates are byte-equal modulo wall annotations) and
// sort canonically. Views under other trace IDs are ignored.
func MergeTraces(id string, views ...trace.Trace) trace.Trace {
	merged := trace.Trace{ID: id}
	seen := make(map[string]bool)
	for _, v := range views {
		if v.ID != id {
			continue
		}
		for _, s := range v.Spans {
			if seen[s.ID] {
				continue
			}
			seen[s.ID] = true
			merged.Spans = append(merged.Spans, s)
		}
	}
	return merged.Sorted()
}
