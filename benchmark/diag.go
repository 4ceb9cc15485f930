package main

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/cluster"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/store"
	"switchpointer/internal/trace"
)

// sweepScenarios is one sweep: each scenario's own query, the two
// switch-driven ones at Fig 8's and Fig 12's 96-server point. The four
// alert-driven scenarios are built once per slot of a ring of clock
// assignments; the two 96-server ones, whose cost does not move with the
// clocks, are built once and repeat in every slot.
var sweepScenarios = []struct {
	name   string
	n      int
	ringed bool
}{
	{"priority", 0, true}, {"microburst", 0, true}, {"redlights", 0, true}, {"cascade", 0, true},
	{"loadimbalance", simServers, false}, {"topk", simServers, false},
}

// inmemRing is how many clock assignments one diag-inmem operation passes
// over: one sweep under each.
const inmemRing = 8

// setupDiagInmem: Analyzer.Run over MemoryDirectory + MemoryHosts, the path
// spctl, the examples and every experiment use. One operation is a pass over
// the ring, 8 sweeps × 6 queries, so every operation does the same work and
// its cost is the ring's mean.
func setupDiagInmem(p params) (*instance, error) {
	ctx := context.Background()
	// pass lists the operation's 48 queries in order: slot-major, each slot
	// in sweepScenarios order. owned holds each testbed once, for close.
	var pass, owned []*builtScenario
	closeAll := func() {
		for _, b := range owned {
			b.s.Testbed.Close()
		}
	}
	for slot := 0; slot < inmemRing; slot++ {
		for i, sc := range sweepScenarios {
			if slot > 0 && !sc.ringed {
				pass = append(pass, pass[i])
				continue
			}
			b, err := buildScenario(ctx, sc.name, 0, sc.n, p, slot, inmemRing)
			if err != nil {
				closeAll()
				return nil, err
			}
			pass, owned = append(pass, b), append(owned, b)
		}
	}

	run := func(runner func(j int) cluster.Runner) opFunc {
		return func(ctx context.Context) (any, error) {
			reports := make([]*analyzer.Report, len(pass))
			for j, b := range pass {
				rep, err := runner(j).Run(ctx, b.query)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", b.name, err)
				}
				reports[j] = rep
			}
			return reports, nil
		}
	}
	inst := &instance{close: closeAll}
	inst.op = run(func(j int) cluster.Runner { return pass[j].s.Testbed.Analyzer })
	inst.check = func(res any) error {
		for j, rep := range res.([]*analyzer.Report) {
			if err := sameReport(cluster.WireFromReport(rep), pass[j].oracle); err != nil {
				return fmt.Errorf("%s: %w", pass[j].name, err)
			}
		}
		return nil
	}

	// The traced twin: the same agents behind the same in-memory backends,
	// each analyzer assembled by hand so both seams carry a wrapper. What
	// the wrappers saw last is kept per scenario, for the rungs: it comes
	// from the pass's last sweep.
	dirReqs := make([][]analyzer.SwitchEpochs, len(sweepScenarios))
	rounds := make([]hostRounds, len(sweepScenarios))
	inst.traced = func(t *tracer) (opFunc, func(), error) {
		runners := make([]cluster.Runner, len(pass))
		for j, b := range pass {
			i, tb := j%len(sweepScenarios), b.s.Testbed
			a := analyzer.New(tb.Topo, tracedDir{Directory: tb.Analyzer.Dir, t: t, last: &dirReqs[i]}, tb.HostAgents, tb.Opt.Cost)
			a.HostBack = tracedHosts{inner: analyzer.MemoryHosts{Agents: tb.HostAgents}, t: t, last: &rounds[i]}
			runners[j] = tracedRunner{t: t, inner: a, kind: b.name}
		}
		traced := run(func(j int) cluster.Runner { return runners[j] })
		return func(ctx context.Context) (any, error) {
			ctx, root := t.start(ctx, "bench.op")
			defer root.end()
			res, err := traced(ctx)
			if err == nil {
				spans := 0
				for _, rep := range res.([]*analyzer.Report) {
					spans += len(rep.Trace.Spans)
				}
				t.sample("op:trace_spans", float64(spans))
			}
			return res, err
		}, func() {}, nil
	}

	inst.layers = func(t *tracer, out map[string]float64) error {
		last := pass[len(pass)-len(sweepScenarios):] // the pass's last sweep
		for _, sc := range sweepScenarios {
			out["analyzer.run_us."+sc.name] = t.p50("span:analyzer.run."+sc.name) / 1e3
		}
		analyzerLayers(t, out)
		out["trace.spans_per_op"] = t.avg("op:trace_spans")

		// What the analyzer's own virtual-time tracing costs an operation:
		// DisableTracing set against unset, interleaved.
		setTracing := func(off bool) {
			for _, b := range owned {
				b.s.Testbed.Analyzer.DisableTracing = off
			}
		}
		cost := make(map[bool][]float64) // keyed by DisableTracing
		reps, passes := 15, 12
		if p.quick {
			reps, passes = 3, 2
		}
		for r := 0; r < reps; r++ {
			for _, disabled := range []bool{false, true} {
				setTracing(disabled)
				t0 := wallNow()
				for i := 0; i < passes; i++ {
					if _, err := inst.op(ctx); err != nil {
						return err
					}
				}
				cost[disabled] = append(cost[disabled], float64(wallNow().Sub(t0))/1e3/float64(passes))
			}
		}
		setTracing(false)
		out["trace.cost_us_per_op"] = median(cost[false]) - median(cost[true])

		// Rungs: the agents called directly with the queries the wrappers
		// saw. Indices follow sweepScenarios.
		const priority, loadimbalance, topk = 0, 4, 5
		pull := dirReqs[topk][0]
		sw := last[topk].s.Testbed.SwitchAgents[pull.Switch]
		out["switchagent.pull_us"] = rungUs(p.quick, 20_000, func(int) { rungSink = sw.PullPointers(pull.Epochs) })
		out["pointer.query_us"] = rungUs(p.quick, 20_000, func(int) { rungSink, _ = sw.Pointer().Query(pull.Epochs) })
		hq := rounds[priority]
		hag := last[priority].s.Testbed.HostAgents[hq.headersHosts[0]]
		out["hostagent.query_headers_us"] = rungUs(p.quick, 20_000, func(int) { rungSink = hag.QueryHeadersMulti(ctx, hq.headersQueries) })
		tq := rounds[topk]
		tag := last[topk].s.Testbed.HostAgents[tq.topkHosts[0]]
		out["hostagent.query_topk_us"] = rungUs(p.quick, 20_000, func(int) { rungSink = tag.QueryTopK(ctx, tq.topkSwitch, tq.topkK) })
		fq := rounds[loadimbalance]
		fag := last[loadimbalance].s.Testbed.HostAgents[fq.sizesHosts[0]]
		out["hostagent.query_flowsizes_us"] = rungUs(p.quick, 20_000, func(int) { rungSink = fag.QueryFlowSizes(ctx, fq.sizesSwitch) })
		out["store.query_by_switch_ns_per_rec"] = scanRung(p.quick, hag.Store, hq.headersQueries[0].Switch)
		return nil
	}
	return inst, nil
}

// rungUs is rung for calls that take microseconds.
func rungUs(quick bool, batch int, fn func(i int)) float64 {
	ns, _ := rung(quick, batch, fn)
	return ns / 1e3
}

// scanRung is the host query executors' iteration primitive alone: ns per
// record QueryBySwitch visits.
func scanRung(quick bool, st *store.RecordStore, sw netsim.NodeID) float64 {
	perCall := len(st.BySwitch(sw))
	if perCall == 0 {
		return 0
	}
	visited := 0
	ns, _ := rung(quick, 4_000_000/(perCall+200), func(int) {
		st.QueryBySwitch(sw, func(*flowrec.Record) bool { visited++; return true })
	})
	return ns / float64(perCall)
}

// analyzerLayers is the analyzer's share of any diag-* operation: the run,
// its rounds through either seam, and what is left over — the procedure's
// own prune, correlate and sort.
func analyzerLayers(t *tracer, out map[string]float64) {
	out["analyzer.run_us"] = t.p50("op:sum:analyzer.run") / 1e3
	out["analyzer.self_us"] = t.p50("op:analyzer.self") / 1e3
	out["analyzer.dir_round_us"] = t.p50("op:sum:analyzer.dir_round") / 1e3
	out["analyzer.host_round_us"] = t.p50("op:sum:analyzer.host_round") / 1e3
	out["analyzer.dir_rounds_per_op"] = t.avg("op:count:analyzer.dir_round")
	out["analyzer.host_rounds_per_op"] = t.avg("op:count:analyzer.host_round")
	out["analyzer.hosts_contacted_per_op"] = t.avg("op:n:analyzer.host_round")
}

// trio is a query's loopback deployment: the operation is Client.Diagnose
// against cluster.NewLoopback, the oracle the in-memory analyzer's report
// for the same state.
type trio struct {
	b    *builtScenario
	env  cluster.QueryEnvelope
	last hostRounds // what the traced twin's host backend saw
}

func newTrio(b *builtScenario) (*trio, *instance, error) {
	env, err := cluster.Envelope(b.query)
	if err != nil {
		return nil, nil, err
	}
	lb, err := cluster.NewLoopback(b.s.Testbed, cluster.AdmissionConfig{})
	if err != nil {
		return nil, nil, err
	}
	tr := &trio{b: b, env: env}
	inst := &instance{
		op:     func(ctx context.Context) (any, error) { return lb.Client.Diagnose(ctx, env) },
		check:  func(res any) error { return sameReport(res.(*cluster.WireReport), b.oracle) },
		close:  func() { lb.Close(); b.s.Testbed.Close() },
		traced: tr.traced,
	}
	return tr, inst, nil
}

// traced assembles the same trio by hand from the constructors NewLoopback
// uses, with a wrapper at every seam: the operator's client, the analyzer
// handler, the Runner behind admission, both analyzer backends, the pooled
// client's transport, and both agent muxes.
func (tr *trio) traced(t *tracer) (opFunc, func(), error) {
	tb := tr.b.s.Testbed
	var servers []*server
	closeAll := func() {
		for _, s := range servers {
			s.close()
		}
	}
	start := func(name string, h http.Handler, count bool) (string, error) {
		var conns *atomic.Int64
		if count {
			conns = &t.newConns
		}
		s, err := serve(t.middleware(name, h), conns)
		if err != nil {
			closeAll()
			return "", err
		}
		servers = append(servers, s)
		return s.url, nil
	}
	hostURL, err := start("hostagent.http", cluster.HostMux(tb, nil), true)
	if err != nil {
		return nil, nil, err
	}
	switchURL, err := start("switchagent.http", cluster.SwitchMux(tb, nil), true)
	if err != nil {
		return nil, nil, err
	}

	pooled := rpc.NewPooledHTTPClient()
	pooled.HTTP.Transport = tracedTransport{t: t, inner: pooled.HTTP.Transport, name: "rpc.roundtrip"}
	an, err := cluster.NewRemoteAnalyzer(tb, cluster.HostURLs(hostURL, tb), cluster.SwitchURLs(switchURL, tb), pooled)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	var dirReqs []analyzer.SwitchEpochs
	an.Dir = tracedDir{Directory: an.Dir, t: t, last: &dirReqs}
	an.HostBack = tracedHosts{inner: an.HostBack, t: t, last: &tr.last}
	ad := cluster.NewAdmission(tracedRunner{t: t, inner: an}, cluster.AdmissionConfig{})
	ad.Flight = trace.NewFlightRecorder("analyzer", 0)
	analyzerURL, err := start("cluster.diagnose_server", cluster.NewAnalyzerHandler(ad), false)
	if err != nil {
		return nil, nil, err
	}

	operator := http.DefaultTransport.(*http.Transport).Clone()
	client := &cluster.Client{BaseURL: analyzerURL,
		HTTP: &http.Client{Transport: tracedTransport{t: t, inner: operator, name: "bench.http"}}}
	op := func(ctx context.Context) (any, error) {
		ctx, root := t.start(ctx, "bench.diagnose")
		defer root.end()
		return client.Diagnose(ctx, tr.env)
	}
	return op, func() {
		closeAll()
		pooled.CloseIdleConnections()
		operator.CloseIdleConnections()
	}, nil
}

// layers is the service plane's share of an operation, span by span, then
// the JSON rung over the bodies the first traced operation moved.
func (tr *trio) layers(t *tracer, quick bool, out map[string]float64) error {
	analyzerLayers(t, out)
	out["cluster.diagnose_server_us"] = t.p50("span:cluster.diagnose_server") / 1e3
	out["cluster.client_overhead_us"] = t.p50("op:client_overhead") / 1e3
	out["cluster.admission_us"] = t.p50("op:admission") / 1e3
	out["cluster.encode_us"] = t.p50("op:encode") / 1e3
	out["cluster.report_bytes"] = t.avg("op:report_bytes")
	out["rpc.requests_per_op"] = t.avg("op:count:rpc.roundtrip")
	out["rpc.req_bytes_per_op"] = t.avg("op:req_bytes")
	out["rpc.resp_bytes_per_op"] = t.avg("op:resp_bytes")
	out["rpc.roundtrip_us.switch"] = t.p50("span:rpc.roundtrip.switch") / 1e3
	out["rpc.roundtrip_us.host"] = t.p50("span:rpc.roundtrip.host") / 1e3
	out["rpc.body_read_us"] = t.p50("span:rpc.body_read") / 1e3
	out["rpc.wire_us"] = t.p50("span:rpc.wire") / 1e3
	out["rpc.conns_opened_per_kop"] = float64(t.newConns.Load()) / float64(t.ops) * 1000
	out["switchagent.http_us"] = t.p50("span:switchagent.http") / 1e3
	out["hostagent.http_us"] = t.p50("span:hostagent.http") / 1e3
	out["hostagent.http_busy_us_per_op"] = t.p50("op:sum:hostagent.http") / 1e3

	enc, dec, err := jsonRung(quick, t.captured)
	if err != nil {
		return err
	}
	out["rpc.json_encode_us_per_op"] = enc
	out["rpc.json_decode_us_per_op"] = dec
	return nil
}

// setupDiagFanout: Fig 12's 96-server point over the trio — one pointer
// pull, then a 96-host /topk round of tiny answers.
func setupDiagFanout(p params) (*instance, error) {
	b, err := buildScenario(context.Background(), "topk", 0, simServers, p, 0, 1)
	if err != nil {
		return nil, err
	}
	tr, inst, err := newTrio(b)
	if err != nil {
		b.s.Testbed.Close()
		return nil, err
	}
	inst.layers = func(t *tracer, out map[string]float64) error { return tr.layers(t, p.quick, out) }
	return inst, nil
}
