package analyzer_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
)

// cancelOnHeaders wraps a HostBackend and cancels the run's context the
// moment the diagnosis reaches its HeadersRound fan-out, so the round stops
// at a deterministic dispatch-prefix checkpoint mid-procedure.
type cancelOnHeaders struct {
	analyzer.HostBackend
	cancel context.CancelFunc
}

func (c cancelOnHeaders) HeadersRound(ctx context.Context, workers int, hosts []netsim.IPv4, queries []hostagent.HeadersQuery) ([][]hostagent.HeadersAnswer, int, error) {
	c.cancel()
	return c.HostBackend.HeadersRound(ctx, workers, hosts, queries)
}

// corruptHeaders wraps a HostBackend and spoils the last byte of the first
// answer segment that holds a record, as a faulty host or link might, and
// names the host it came from.
type corruptHeaders struct {
	analyzer.HostBackend
	host *netsim.IPv4
}

func (c corruptHeaders) HeadersRound(ctx context.Context, workers int, hosts []netsim.IPv4, queries []hostagent.HeadersQuery) ([][]hostagent.HeadersAnswer, int, error) {
	answers, dispatched, err := c.HostBackend.HeadersRound(ctx, workers, hosts, queries)
	for i := range dispatched {
		for qi, ans := range answers[i] {
			if n, _ := flowrec.SegmentRecords(ans.Segment); n > 0 {
				seg := bytes.Clone(ans.Segment)
				seg[len(seg)-1] = 0xff // the last varint now runs off the end
				answers[i][qi].Segment = seg
				*c.host = hosts[i]
				return answers, dispatched, err
			}
		}
	}
	return answers, dispatched, err
}

// TestCorruptAnswerAbortsDiagnosis: an answer segment that does not read to
// the end aborts the diagnosis with an error naming the host it came from —
// never a panic, never a report built from part of an answer.
func TestCorruptAnswerAbortsDiagnosis(t *testing.T) {
	s, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	defer tb.Close()
	tb.Run(30 * simtime.Millisecond)
	alert, ok := tb.AlertFor(s.Victim)
	if !ok {
		t.Fatal("victim never triggered")
	}
	var host netsim.IPv4
	saved := tb.Analyzer.HostBack
	tb.Analyzer.HostBack = corruptHeaders{HostBackend: saved, host: &host}
	defer func() { tb.Analyzer.HostBack = saved }()

	rep, err := tb.Analyzer.Run(context.Background(), analyzer.RedLightsQuery{Alert: alert})
	if host == 0 {
		t.Fatal("no answer held a record to spoil")
	}
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), host.String()) {
		t.Fatalf("err = %v, want a corrupt-answer error naming host %v", err, host)
	}
	if rep == nil || !strings.HasPrefix(rep.Conclusion, "host queries failed") || rep.Kind != analyzer.KindInconclusive {
		t.Fatalf("report = %+v, want an inconclusive one that says the host queries failed", rep)
	}
}

// TestBadRemoteAnswerAbortsDiagnosis is TestCorruptAnswerAbortsDiagnosis
// over the wire: every host answers /headers-batch with a segment that does
// not validate, and the remote diagnosis ends inconclusive, saying the host
// queries failed and naming the first host it contacted — not a report
// that reads the hosts as holding no records.
func TestBadRemoteAnswerAbortsDiagnosis(t *testing.T) {
	s, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	defer tb.Close()
	tb.Run(30 * simtime.Millisecond)
	alert, ok := tb.AlertFor(s.Victim)
	if !ok {
		t.Fatal("victim never triggered")
	}
	// One answer per query, so the count is right and the segment check
	// is the one that fails.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req rpc.HeadersBatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		answers := strings.Repeat(`{"segment":"bm90IGEgc2VnbWVudA=="},`, len(req.Queries))
		io.WriteString(w, `{"answers":[`+strings.TrimSuffix(answers, ",")+`]}`) //nolint:errcheck
	}))
	defer srv.Close()
	urls := make(map[netsim.IPv4]string, len(tb.HostAgents))
	for ip := range tb.HostAgents {
		urls[ip] = srv.URL
	}
	client := rpc.NewPooledHTTPClient()
	defer client.CloseIdleConnections()
	saved := tb.Analyzer.HostBack
	tb.Analyzer.HostBack = analyzer.NewRemoteHosts(urls, client)
	defer func() { tb.Analyzer.HostBack = saved }()

	rep, err := tb.Analyzer.Run(context.Background(), analyzer.RedLightsQuery{Alert: alert})
	if rep == nil || len(rep.Consulted) == 0 {
		t.Fatalf("report = %+v, want one that consulted hosts", rep)
	}
	first := rep.Consulted[0].String()
	if !errors.Is(err, rpc.ErrBadAnswer) || !strings.Contains(err.Error(), first) {
		t.Fatalf("err = %v, want a bad-answer error naming host %v", err, first)
	}
	if !strings.HasPrefix(rep.Conclusion, "host queries failed") || rep.Kind != analyzer.KindInconclusive {
		t.Fatalf("report = %+v, want an inconclusive one that says the host queries failed", rep)
	}
}

// TestCancelledDiagnosisTraceWellFormed: a diagnosis cut by context
// cancellation must still hand back a closed, well-formed trace whose phase
// spans mirror the partial report's charged phases exactly — the trace
// equivalent of the dispatched-prefix partial-cost contract.
func TestCancelledDiagnosisTraceWellFormed(t *testing.T) {
	s, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	defer tb.Close()
	tb.Run(30 * simtime.Millisecond)

	alert, ok := tb.AlertFor(s.Victim)
	if !ok {
		t.Fatal("victim never triggered")
	}
	q := analyzer.RedLightsQuery{Alert: alert}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	saved := tb.Analyzer.HostBack
	tb.Analyzer.HostBack = cancelOnHeaders{HostBackend: saved, cancel: cancel}
	defer func() { tb.Analyzer.HostBack = saved }()

	rep, err := tb.Analyzer.Run(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled run returned no partial report")
	}
	if rep.TraceID == "" || rep.TraceID != analyzer.TraceID(q) {
		t.Fatalf("TraceID = %q, want derived %q", rep.TraceID, analyzer.TraceID(q))
	}
	if rep.Trace == nil {
		t.Fatal("cancelled run carries no trace")
	}

	// The root span must be closed at the clock's final reading and anchored
	// at the query's virtual start.
	var rootFound bool
	for _, sp := range rep.Trace.Spans {
		if sp.End < sp.Start {
			t.Fatalf("span %s runs backwards: %v → %v", sp.ID, sp.Start, sp.End)
		}
		if sp.ID == "0" {
			rootFound = true
			if sp.Start != analyzer.QueryStart(q) {
				t.Fatalf("root start = %v, want %v", sp.Start, analyzer.QueryStart(q))
			}
			if sp.End != rep.Clock.Now() {
				t.Fatalf("root not closed at clock: end %v, clock %v", sp.End, rep.Clock.Now())
			}
		}
	}
	if !rootFound {
		t.Fatal("trace has no root span")
	}

	// Every charged phase must appear as exactly one ordinal child span with
	// matching name, order, and virtual duration — including the partial
	// charge for the dispatched prefix of the cancelled round.
	phases := rep.Clock.Phases()
	if len(phases) == 0 {
		t.Fatal("partial report charged no phases")
	}
	for i, ph := range phases {
		id := strconv.Itoa(i + 1)
		var found bool
		for _, sp := range rep.Trace.Spans {
			if sp.ID != id {
				continue
			}
			found = true
			if sp.Parent != "0" {
				t.Fatalf("phase span %s parent = %q", id, sp.Parent)
			}
			if sp.Name != ph.Name {
				t.Fatalf("phase span %s = %q, want charged phase %q", id, sp.Name, ph.Name)
			}
			if sp.Duration() != ph.Duration {
				t.Fatalf("phase span %s duration %v, want charged %v", id, sp.Duration(), ph.Duration)
			}
		}
		if !found {
			t.Fatalf("charged phase %d (%s) has no span", i+1, ph.Name)
		}
	}
	// And no phase spans beyond the charged ones.
	if extra := strconv.Itoa(len(phases) + 1); rep.TraceID != "" {
		for _, sp := range rep.Trace.Spans {
			if sp.ID == extra {
				t.Fatalf("trace has uncharged phase span %s (%s)", extra, sp.Name)
			}
		}
	}
	// The partial-cost contract: the consulted set is the dispatched prefix,
	// never the full fan-out list.
	if len(rep.Consulted) > rep.HostsContacted {
		t.Fatalf("consulted %d > contacted %d", len(rep.Consulted), rep.HostsContacted)
	}
}
