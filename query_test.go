package switchpointer

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/scenario"
)

// TestAnalyzerRunAllQueryKinds drives every query kind through the unified
// Analyzer.Run dispatch and checks the Report envelope each returns.
func TestAnalyzerRunAllQueryKinds(t *testing.T) {
	cases := []struct {
		name     string
		setup    func(t *testing.T) (*Testbed, Query)
		wantKind analyzer.Kind
	}{
		{
			name: "contention",
			setup: func(t *testing.T) (*Testbed, Query) {
				s, err := scenario.NewTooMuchTraffic(scenario.TooMuchTrafficConfig{M: 4})
				if err != nil {
					t.Fatal(err)
				}
				s.Testbed.Run(110 * Millisecond)
				alert, ok := s.Testbed.AlertFor(s.Victim)
				if !ok {
					t.Fatal("no alert")
				}
				return s.Testbed, ContentionQuery{Alert: alert}
			},
			wantKind: KindPriorityContention,
		},
		{
			name: "red-lights",
			setup: func(t *testing.T) (*Testbed, Query) {
				s, err := scenario.NewRedLights(scenario.Options{})
				if err != nil {
					t.Fatal(err)
				}
				s.Testbed.Run(30 * Millisecond)
				alert, ok := s.Testbed.AlertFor(s.Victim)
				if !ok {
					t.Fatal("no alert")
				}
				return s.Testbed, RedLightsQuery{Alert: alert}
			},
			wantKind: KindRedLights,
		},
		{
			name: "cascade",
			setup: func(t *testing.T) (*Testbed, Query) {
				s, err := scenario.NewCascades(true, scenario.Options{})
				if err != nil {
					t.Fatal(err)
				}
				s.Testbed.Run(60 * Millisecond)
				alert, ok := s.Testbed.AlertFor(s.FlowCE)
				if !ok {
					t.Fatal("no alert")
				}
				return s.Testbed, CascadeQuery{Alert: alert}
			},
			wantKind: KindCascade,
		},
		{
			name: "load-imbalance",
			setup: func(t *testing.T) (*Testbed, Query) {
				s, err := scenario.NewLoadImbalance(8, scenario.Options{})
				if err != nil {
					t.Fatal(err)
				}
				end := s.Testbed.Run(200 * Millisecond)
				nowEpoch := s.Testbed.SwitchAgents[s.Suspect.NodeID()].LocalEpochAt(end)
				return s.Testbed, ImbalanceQuery{
					Switch: s.Suspect.NodeID(),
					Window: EpochRange{Lo: nowEpoch - 99, Hi: nowEpoch},
					At:     end,
				}
			},
			wantKind: KindLoadImbalance,
		},
		{
			name: "top-k",
			setup: func(t *testing.T) (*Testbed, Query) {
				s, err := scenario.NewTopKWorkload(4, 12, scenario.Options{})
				if err != nil {
					t.Fatal(err)
				}
				end := s.Testbed.Run(50 * Millisecond)
				return s.Testbed, TopKQuery{
					Switch: s.Queried.NodeID(), K: 100,
					Window: EpochRange{Lo: 0, Hi: 10},
					Mode:   ModeSwitchPointer, At: end,
				}
			},
			wantKind: KindTopK,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb, q := tc.setup(t)
			defer tb.Close()
			rep, err := tb.Analyzer.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Kind != tc.wantKind {
				t.Fatalf("kind = %v, want %v (%s)", rep.Kind, tc.wantKind, rep.Conclusion)
			}
			if rep.Query == nil || rep.Query.Name() != q.Name() {
				t.Fatalf("report does not echo its query: %v", rep.Query)
			}
			if rep.Clock == nil || rep.Total() <= 0 {
				t.Fatalf("missing cost accounting: clock=%v", rep.Clock)
			}
			if len(rep.Consulted) == 0 {
				t.Fatalf("empty consulted-host set")
			}
			if rep.Conclusion == "" {
				t.Fatalf("empty conclusion")
			}
		})
	}
}

// TestRunRejectsInvalidQueries pins what replaced the deleted PR 1 shims'
// "never nil" fallback (TopK clamped a negative k, TopK and
// DiagnoseLoadImbalance turned a validation failure into an inconclusive
// report): Run answers a malformed query with an error and no report,
// before any cost is charged.
func TestRunRejectsInvalidQueries(t *testing.T) {
	tb, err := New(Dumbbell(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	inverted := EpochRange{Lo: 5, Hi: 1}
	for _, q := range []Query{
		TopKQuery{K: -1, Window: EpochRange{Lo: 0, Hi: 1}},
		TopKQuery{K: 10, Window: inverted},
		ImbalanceQuery{Window: inverted},
		nil,
	} {
		rep, err := tb.Analyzer.Run(context.Background(), q)
		if err == nil || rep != nil {
			t.Fatalf("Run(%#v) = %v, %v; want no report and a validation error", q, rep, err)
		}
	}
}

// countdownCtx is a deterministic cancellation source: Err returns nil for
// the first `remaining` checks, then context.Canceled forever. It lets the
// test cancel exactly at the N-th checkpoint of a diagnosis without any
// goroutine races.
type countdownCtx struct {
	context.Context
	remaining int
	tripped   bool
}

func (c *countdownCtx) Err() error {
	if c.tripped {
		return context.Canceled
	}
	if c.remaining <= 0 {
		c.tripped = true
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestRunCancellation asserts the context contract: a cancelled query
// returns the partial Report — with the cost actually incurred on its clock
// — together with ctx.Err().
func TestRunCancellation(t *testing.T) {
	s, err := scenario.NewTooMuchTraffic(scenario.TooMuchTrafficConfig{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	tb.Run(110 * Millisecond)
	alert, ok := tb.AlertFor(s.Victim)
	if !ok {
		t.Fatal("no alert")
	}
	q := ContentionQuery{Alert: alert}

	full, err := tb.Analyzer.Run(context.Background(), q)
	if err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}

	t.Run("cancelled-before-pointer-retrieval", func(t *testing.T) {
		ctx := &countdownCtx{Context: context.Background(), remaining: 0}
		rep, err := tb.Analyzer.Run(ctx, q)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if rep == nil {
			t.Fatal("no partial report")
		}
		// Detection + alert delivery were already paid; nothing else was.
		if rep.Total() <= 0 || rep.Total() >= full.Total() {
			t.Fatalf("partial cost %v, want in (0, %v)", rep.Total(), full.Total())
		}
		if rep.HostsContacted != 0 || len(rep.Consulted) != 0 {
			t.Fatalf("cancelled run still contacted %d hosts", rep.HostsContacted)
		}
		if !strings.Contains(rep.Conclusion, "cancelled") {
			t.Fatalf("conclusion %q does not mention cancellation", rep.Conclusion)
		}
	})

	t.Run("cancelled-mid-host-queries", func(t *testing.T) {
		ctx := &countdownCtx{Context: context.Background(), remaining: 3}
		rep, err := tb.Analyzer.Run(ctx, q)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if rep.Total() <= 0 || rep.Total() >= full.Total() {
			t.Fatalf("partial cost %v, want in (0, %v)", rep.Total(), full.Total())
		}
		if rep.HostsContacted >= full.HostsContacted {
			t.Fatalf("partial run contacted %d hosts, full run %d", rep.HostsContacted, full.HostsContacted)
		}
	})

	t.Run("pointer-query-dispatch", func(t *testing.T) {
		rep, err := tb.Analyzer.Run(context.Background(), &q)
		if err != nil {
			t.Fatalf("pointer query: %v", err)
		}
		if rep.Kind != full.Kind {
			t.Fatalf("pointer query kind %v != %v", rep.Kind, full.Kind)
		}
	})

	t.Run("expired-deadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		rep, err := tb.Analyzer.Run(ctx, q)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if rep == nil || rep.Clock == nil {
			t.Fatal("no partial report for expired deadline")
		}
	})
}

// TestSubscribeMultiSubscriber asserts the streaming-alert contract at the
// facade: every subscriber sees every matching alert, the stream agrees with
// the poll-style AlertFor shim, and Close tears the streams down.
func TestSubscribeMultiSubscriber(t *testing.T) {
	tb, err := New(Dumbbell(3, 3), WithQueueDiscipline(QueuePriority))
	if err != nil {
		t.Fatal(err)
	}
	src, dst := tb.Host("L1"), tb.Host("R1")
	victim := FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 10000, DstPort: 80, Proto: 6}
	StartTCP(tb.Net, src, dst, TCPConfig{Flow: victim, Priority: 1, Duration: 100 * Millisecond})
	aggSrc, aggDst := tb.Host("L2"), tb.Host("R2")
	StartUDP(tb.Net, aggSrc, UDPConfig{
		Flow:     FlowKey{Src: aggSrc.IP(), Dst: aggDst.IP(), SrcPort: 7, DstPort: 7, Proto: 17},
		Priority: 7, RateBps: 1_000_000_000,
		Start: 50 * Millisecond, Duration: 5 * Millisecond,
	})

	sub1 := tb.Subscribe(AlertFilter{})
	sub2 := tb.Subscribe(AlertFilter{})
	noMatch := tb.Subscribe(AlertFilter{Host: tb.Host("L3").IP()}) // L3 sends and receives nothing
	tb.Run(120 * Millisecond)
	tb.Close()

	drain := func(ch <-chan Alert) []Alert {
		var out []Alert
		for a := range ch {
			out = append(out, a)
		}
		return out
	}
	got1, got2, got3 := drain(sub1), drain(sub2), drain(noMatch)

	if len(tb.Alerts) == 0 {
		t.Fatal("scenario raised no alerts")
	}
	if len(got1) != len(tb.Alerts) || len(got2) != len(tb.Alerts) {
		t.Fatalf("subscribers got %d/%d alerts, log has %d", len(got1), len(got2), len(tb.Alerts))
	}
	for i := range tb.Alerts {
		if got1[i].Flow != tb.Alerts[i].Flow || got1[i].DetectedAt != tb.Alerts[i].DetectedAt {
			t.Fatalf("subscriber 1 alert %d differs from log", i)
		}
		if got2[i].Flow != tb.Alerts[i].Flow || got2[i].DetectedAt != tb.Alerts[i].DetectedAt {
			t.Fatalf("subscriber 2 alert %d differs from log", i)
		}
	}
	if len(got3) != 0 {
		t.Fatalf("host filter leaked %d alerts", len(got3))
	}
	// Subscribe must deliver the same first-alert AlertFor reports.
	polled, ok := tb.AlertFor(victim)
	if !ok {
		t.Fatal("AlertFor lost the alert")
	}
	found := false
	for _, a := range got1 {
		if a.Flow == victim && a.DetectedAt == polled.DetectedAt {
			found = true
		}
	}
	if !found {
		t.Fatalf("stream missing the alert AlertFor reports")
	}
	if tb.AlertsDropped() != 0 {
		t.Fatalf("unexpected drops: %d", tb.AlertsDropped())
	}
}
