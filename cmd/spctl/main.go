// Command spctl reproduces an operator's debugging session: it runs a
// scenario, waits on the testbed's alert stream, and executes the matching
// query through the analyzer's unified dispatch the way §3's worked example
// describes — printing the pointer retrievals, the pruned search radius, the
// consulted hosts, and the conclusion with its timing breakdown.
//
// Usage:
//
//	spctl -problem priority -m 8
//	spctl -problem microburst -m 16
//	spctl -problem redlights
//	spctl -problem cascade
//	spctl -problem loadimbalance -n 16
//	spctl -problem topk -n 32
//	spctl -problem priority -timeout 50ms   # bound the query in wall time
//
// With -remote, spctl becomes a thin client of a running `spd analyzer`
// service: it rebuilds the same deterministic scenario locally only to
// derive the query (trigger alert, suspect switch, epoch window), then
// submits it over the wire as a cluster.QueryEnvelope and prints the
// returned wire-form report — the whole diagnosis executes on the remote
// cluster:
//
//	spctl -problem redlights -remote http://127.0.0.1:7643
//
// With -metrics, spctl instead scrapes a daemon's Prometheus /metrics
// endpoint, parses the exposition text, and pretty-prints every family with
// its samples — a quick operator's view of any spd role's self-telemetry:
//
//	spctl -metrics http://127.0.0.1:7641
//
// With -trace, spctl fetches a diagnosis trace from a running analyzer's
// flight recorder (GET /traces), walks the analyzer's advertised peers to
// collect the host/switch daemons' child spans, merges the views by span ID,
// and pretty-prints the virtual-time span tree (add -json for the canonical
// merged JSON — byte-identical across repeated fetches):
//
//	spctl -trace http://127.0.0.1:7643 [sp-0123456789abcdef]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/buildinfo"
	"switchpointer/internal/cluster"
	"switchpointer/internal/metrics"
	"switchpointer/internal/scenario"
	"switchpointer/internal/trace"
)

func main() {
	var (
		problem  = flag.String("problem", "priority", "priority | microburst | redlights | cascade | loadimbalance | topk")
		m        = flag.Int("m", 8, "burst flows (priority/microburst)")
		n        = flag.Int("n", 16, "servers (loadimbalance/topk)")
		timeout  = flag.Duration("timeout", 0, "wall-clock deadline for the analyzer query (0 = none)")
		remote   = flag.String("remote", "", "analyzer service URL — submit the query to a running `spd analyzer` instead of simulating in-process")
		scrape   = flag.String("metrics", "", "daemon URL — scrape and pretty-print its Prometheus /metrics instead of running a query")
		traceURL = flag.String("trace", "", "analyzer service URL — fetch, merge, and print a diagnosis trace from the cluster's flight recorders (optional positional arg: trace ID; defaults to the most recent)")
		asJSON   = flag.Bool("json", false, "with -trace: print the canonical merged trace as JSON instead of a tree")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("spctl %s %s\n", buildinfo.Version, buildinfo.Go())
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *traceURL != "" {
		runTrace(ctx, *traceURL, flag.Arg(0), *asJSON)
		return
	}

	if *scrape != "" {
		runMetrics(ctx, *scrape)
		return
	}

	if *remote != "" {
		runRemote(ctx, *remote, *problem, *m, *n)
		return
	}

	// Local mode uses the same scenario/query derivation as --remote and
	// the spd daemons (cluster.BuildScenarioOpt), so the two modes can never
	// diverge on horizons, windows, or parameters.
	s, err := cluster.BuildScenarioOpt(*problem, *m, *n, scenario.Options{})
	check(err)
	defer s.Testbed.Close()
	q, err := s.Query()
	check(err)

	switch *problem {
	case "priority", "microburst", "redlights", "cascade":
		alert, err := s.Alert()
		check(err)
		fmt.Printf("trigger: %s on %v at %v (%.2f → %.2f Gbps)\n",
			alert.Kind, alert.Flow, alert.DetectedAt, alert.PrevGbps, alert.CurGbps)
		rep := run(ctx, s.Testbed.Analyzer, q)
		printReport(rep)
		if len(rep.Cascade) > 1 {
			fmt.Println("cascade chain:")
			for i, f := range rep.Cascade {
				fmt.Printf("  %d. %v\n", i, f)
			}
		}
	case "loadimbalance":
		rep := run(ctx, s.Testbed.Analyzer, q)
		fmt.Printf("suspect switch: %s\n", s.SwitchName)
		for _, l := range rep.Links {
			fmt.Printf("  link %d: %d flows, sizes %d..%d B\n", l.Link, l.Flows, l.Min(), l.Max())
		}
		fmt.Printf("conclusion: %s\n", rep.Conclusion)
		fmt.Printf("hosts contacted: %d, diagnosis time: %v\n", rep.HostsContacted, rep.Total())
	case "topk":
		sp := run(ctx, s.Testbed.Analyzer, q)
		pdq := q.(analyzer.TopKQuery)
		pdq.Mode = analyzer.ModePathDump
		pd := run(ctx, s.Testbed.Analyzer, pdq)
		fmt.Printf("top-100 at %s: %d flows found\n", s.SwitchName, len(sp.Flows))
		for i, fb := range sp.Flows {
			if i >= 5 {
				fmt.Printf("  ... %d more\n", len(sp.Flows)-5)
				break
			}
			fmt.Printf("  %2d. %v — %d B\n", i+1, fb.Flow, fb.Bytes)
		}
		fmt.Printf("SwitchPointer: %d hosts, %v\n", sp.HostsContacted, sp.Total())
		fmt.Printf("PathDump:      %d hosts, %v\n", pd.HostsContacted, pd.Total())
	}
}

// runMetrics scrapes a daemon's /metrics endpoint, parses the Prometheus
// exposition text, and pretty-prints every family: TYPE, HELP, and each
// sample with its labels. Exits non-zero on unreachable daemons or
// malformed exposition text.
func runMetrics(ctx context.Context, url string) {
	if !strings.HasSuffix(url, "/metrics") {
		url = strings.TrimRight(url, "/") + "/metrics"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	check(err)
	resp, err := http.DefaultClient.Do(req)
	check(err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		check(fmt.Errorf("GET %s: status %d", url, resp.StatusCode))
	}
	fams, err := metrics.ParseText(io.LimitReader(resp.Body, 8<<20))
	check(err)
	fmt.Printf("# %s — %d metric families\n", url, len(fams))
	for _, f := range fams {
		fmt.Printf("\n%s (%s) — %s\n", f.Name, f.Type, f.Help)
		for _, s := range f.Samples {
			var labels []string
			for _, l := range s.Labels {
				labels = append(labels, fmt.Sprintf("%s=%q", l[0], l[1]))
			}
			name := s.Name
			if len(labels) > 0 {
				name += "{" + strings.Join(labels, ",") + "}"
			}
			fmt.Printf("  %-60s %g\n", name, s.Value)
		}
	}
}

// runTrace fetches one diagnosis trace from a running analyzer's flight
// recorder, walks the index's advertised peers for the host/switch daemons'
// child spans, merges the per-role views, and prints the span tree (or, with
// -json, the canonical merged JSON the byte-equality gates compare). An empty
// id selects the most recently recorded trace.
func runTrace(ctx context.Context, url, id string, asJSON bool) {
	hc := http.DefaultClient
	base := strings.TrimRight(url, "/")
	idx, err := cluster.FetchTraceIndex(ctx, hc, base)
	check(err)
	if id == "" {
		if len(idx.Traces) == 0 {
			check(fmt.Errorf("no traces recorded at %s", base))
		}
		id = idx.Traces[len(idx.Traces)-1]
	}
	bases := []string{base}
	roles := make([]string, 0, len(idx.Peers))
	for r := range idx.Peers {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	for _, r := range roles {
		bases = append(bases, strings.TrimRight(idx.Peers[r], "/"))
	}
	var views []trace.Trace
	for _, b := range bases {
		t, ok, err := cluster.FetchTrace(ctx, hc, b, id)
		check(err)
		if ok {
			views = append(views, t)
		}
	}
	if len(views) == 0 {
		check(fmt.Errorf("trace %s not found on any daemon", id))
	}
	merged := cluster.MergeTraces(id, views...)
	if asJSON {
		data, err := json.MarshalIndent(merged.Canonical(), "", "  ")
		check(err)
		fmt.Println(string(data))
		return
	}
	printTraceTree(merged)
}

// printTraceTree renders a merged trace as an indented tree. Spans arrive in
// canonical (Start, ID) order, so children print in virtual-time order;
// spans whose parent is absent (an evicted analyzer trace, say) print as
// roots so nothing is silently dropped.
func printTraceTree(t trace.Trace) {
	byID := make(map[string]trace.Span, len(t.Spans))
	children := make(map[string][]string)
	roleSet := make(map[string]bool)
	for _, s := range t.Spans {
		byID[s.ID] = s
		roleSet[s.Role] = true
	}
	var roots []string
	for _, s := range t.Spans {
		if _, ok := byID[s.Parent]; s.Parent != "" && ok {
			children[s.Parent] = append(children[s.Parent], s.ID)
		} else {
			roots = append(roots, s.ID)
		}
	}
	roles := make([]string, 0, len(roleSet))
	for r := range roleSet {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	fmt.Printf("trace %s — %d spans across %s\n", t.ID, len(t.Spans), strings.Join(roles, ", "))
	var walk func(id string, depth int)
	walk = func(id string, depth int) {
		s := byID[id]
		line := fmt.Sprintf("%s%s [%s] %s", strings.Repeat("  ", depth), s.ID, s.Role, s.Name)
		if s.End > s.Start {
			line += fmt.Sprintf("  %v → %v (%v)", s.Start, s.End, s.Duration())
		} else {
			line += fmt.Sprintf("  @ %v", s.Start)
		}
		for _, a := range s.Attrs {
			line += fmt.Sprintf("  %s=%s", a.Key, a.Value)
		}
		if s.Wall > 0 {
			line += fmt.Sprintf("  wall=%dns", s.Wall)
		}
		fmt.Println(line)
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// runRemote derives the problem's query from the locally rebuilt scenario
// and submits it to a running `spd analyzer` service.
func runRemote(ctx context.Context, url, problem string, m, n int) {
	s, err := cluster.BuildScenarioOpt(problem, m, n, scenario.Options{})
	check(err)
	q, err := s.Query()
	check(err)
	env, err := cluster.Envelope(q)
	check(err)
	fmt.Printf("submitting %s query to %s\n", q.Name(), url)
	rep, err := (&cluster.Client{BaseURL: url}).Diagnose(ctx, env)
	if err != nil && rep == nil {
		check(err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spctl: remote query cut short: %v (partial report follows)\n", err)
	}
	printWireReport(rep)
}

// printWireReport renders a remote (wire-form) report the way printReport
// renders a local one, plus the kind-specific payloads.
func printWireReport(d *cluster.WireReport) {
	fmt.Printf("diagnosis: %s\n", d.Kind)
	fmt.Printf("conclusion: %s\n", d.Conclusion)
	fmt.Printf("search radius: %d pointer hosts, %d pruned, %d contacted\n",
		d.PointerHosts, d.PrunedHosts, d.HostsContacted)
	for _, c := range d.Culprits {
		fmt.Printf("  culprit: %v prio=%d bytes=%d at switch %d (telemetry from %v)\n",
			c.Flow, c.Priority, c.Bytes, c.Switch, c.Host)
	}
	if len(d.Cascade) > 1 {
		fmt.Println("cascade chain:")
		for i, f := range d.Cascade {
			fmt.Printf("  %d. %v\n", i, f)
		}
	}
	for _, l := range d.Links {
		fmt.Printf("  link %d: %d flows, sizes %d..%d B\n", l.Link, l.Flows, l.Min(), l.Max())
	}
	for i, fb := range d.Flows {
		if i >= 5 {
			fmt.Printf("  ... %d more\n", len(d.Flows)-5)
			break
		}
		fmt.Printf("  %2d. %v — %d B\n", i+1, fb.Flow, fb.Bytes)
	}
	fmt.Println("timing breakdown:")
	for _, p := range d.Phases {
		fmt.Printf("  %-18s %v\n", p.Name, p.Duration)
	}
	fmt.Printf("  %-18s %v\n", "TOTAL", d.Total())
}

func run(ctx context.Context, a *analyzer.Analyzer, q analyzer.Query) *analyzer.Report {
	rep, err := a.Run(ctx, q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spctl: query %s aborted: %v (partial report follows)\n", q.Name(), err)
	}
	return rep
}

func printReport(d *analyzer.Report) {
	fmt.Printf("diagnosis: %s\n", d.Kind)
	fmt.Printf("conclusion: %s\n", d.Conclusion)
	fmt.Printf("search radius: %d pointer hosts, %d pruned, %d contacted\n",
		d.PointerHosts, d.PrunedHosts, d.HostsContacted)
	for _, c := range d.Culprits {
		fmt.Printf("  culprit: %v prio=%d bytes=%d at switch %d (telemetry from %v)\n",
			c.Flow, c.Priority, c.Bytes, c.Switch, c.Host)
	}
	fmt.Println("timing breakdown:")
	for _, p := range d.Clock.Phases() {
		fmt.Printf("  %-18s %v\n", p.Name, p.Duration)
	}
	fmt.Printf("  %-18s %v\n", "TOTAL", d.Total())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spctl:", err)
		os.Exit(1)
	}
}
