package analyzer_test

import (
	"reflect"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
)

// kindCase is one query of each of the five kinds, in value and pointer
// form, over the small scenario it diagnoses.
type kindCase struct {
	name     string
	a        *analyzer.Analyzer
	val, ptr analyzer.Query
}

// fiveKinds builds and simulates one small scenario per query kind.
func fiveKinds(t testing.TB) []kindCase {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var out []kindCase

	tm, err := scenario.NewTooMuchTraffic(scenario.TooMuchTrafficConfig{M: 4})
	check(err)
	tm.Testbed.Run(110 * simtime.Millisecond)
	alert, ok := tm.Testbed.AlertFor(tm.Victim)
	if !ok {
		t.Fatal("too-much-traffic victim never triggered")
	}
	out = append(out, kindCase{"contention", tm.Testbed.Analyzer,
		analyzer.ContentionQuery{Alert: alert}, &analyzer.ContentionQuery{Alert: alert}})

	rl, err := scenario.NewRedLights(scenario.Options{})
	check(err)
	rl.Testbed.Run(30 * simtime.Millisecond)
	alert, ok = rl.Testbed.AlertFor(rl.Victim)
	if !ok {
		t.Fatal("red-lights victim never triggered")
	}
	out = append(out, kindCase{"red-lights", rl.Testbed.Analyzer,
		analyzer.RedLightsQuery{Alert: alert}, &analyzer.RedLightsQuery{Alert: alert}})

	cs, err := scenario.NewCascades(true, scenario.Options{})
	check(err)
	cs.Testbed.Run(60 * simtime.Millisecond)
	alert, ok = cs.Testbed.AlertFor(cs.FlowCE)
	if !ok {
		t.Fatal("cascade flow C-E never triggered")
	}
	out = append(out, kindCase{"cascade", cs.Testbed.Analyzer,
		analyzer.CascadeQuery{Alert: alert}, &analyzer.CascadeQuery{Alert: alert}})

	li, err := scenario.NewLoadImbalance(8, scenario.Options{})
	check(err)
	li.Testbed.Run(200 * simtime.Millisecond)
	now := li.Testbed.Net.Now()
	ep := li.Testbed.SwitchAgents[li.Suspect.NodeID()].LocalEpochAt(now)
	iq := analyzer.ImbalanceQuery{Switch: li.Suspect.NodeID(), Window: simtime.EpochRange{Lo: ep - 99, Hi: ep}, At: now}
	out = append(out, kindCase{"load-imbalance", li.Testbed.Analyzer, iq, &iq})

	tk, err := scenario.NewTopKWorkload(4, 12, scenario.Options{})
	check(err)
	tk.Testbed.Run(50 * simtime.Millisecond)
	kq := analyzer.TopKQuery{Switch: tk.Queried.NodeID(), K: 100, Window: simtime.EpochRange{Lo: 0, Hi: 10}, At: tk.Testbed.Net.Now()}
	out = append(out, kindCase{"top-k", tk.Testbed.Analyzer, kq, &kq})
	return out
}

// TestPointerQueriesMatchValues: Run, TraceID and QueryStart answer a
// pointer to a query exactly as they answer the query itself, and the
// report carries the caller's own form.
func TestPointerQueriesMatchValues(t *testing.T) {
	for _, c := range fiveKinds(t) {
		t.Run(c.name, func(t *testing.T) {
			if id := analyzer.TraceID(c.val); id == "" || analyzer.TraceID(c.ptr) != id {
				t.Fatalf("TraceID: value %q, pointer %q", id, analyzer.TraceID(c.ptr))
			}
			if at := analyzer.QueryStart(c.val); at == 0 || analyzer.QueryStart(c.ptr) != at {
				t.Fatalf("QueryStart: value %v, pointer %v", at, analyzer.QueryStart(c.ptr))
			}
			byVal := run(t, c.a, c.val)
			byPtr := run(t, c.a, c.ptr)
			if !reflect.DeepEqual(byVal.Query, c.val) ||
				reflect.ValueOf(byPtr.Query).Pointer() != reflect.ValueOf(c.ptr).Pointer() {
				t.Fatalf("Report.Query is not the caller's query: %#v, %#v", byVal.Query, byPtr.Query)
			}
			byVal.Query, byPtr.Query = nil, nil
			if !reflect.DeepEqual(byVal, byPtr) {
				t.Fatalf("reports differ:\nvalue   %+v\npointer %+v", byVal, byPtr)
			}
		})
	}
}
