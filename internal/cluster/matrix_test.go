package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/pointer"
	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
)

// The plane-equivalence matrix: "the same verdict whichever way the
// evidence travelled", checked cell by cell over scenario × evidence path ×
// pointer backend. Every cell's wire report is checked along both axes: its
// path's relation to the same backend's reference cell, and its backend's
// relation to the dense cell of the same path. Together they make every
// exact-backend cell byte-identical to the in-memory dense cell, or related
// to it by the declared cold and compacted relations.

// planeScenario is one row of the one scenario list.
type planeScenario struct {
	name string
	m, n int
	// segs/records are what a snapshot bootstrap ships over the wire: exact
	// scenario properties, the same for every backend.
	segs, records int
}

var planeScenarios = []planeScenario{
	{"priority", 4, 0, 20, 22},    // ContentionQuery → priority-contention
	{"microburst", 4, 0, 20, 22},  // ContentionQuery → microburst-contention
	{"redlights", 0, 0, 4, 4},     // RedLightsQuery
	{"cascade", 0, 0, 4, 4},       // CascadeQuery
	{"loadimbalance", 0, 8, 8, 8}, // ImbalanceQuery
	{"topk", 0, 8, 8, 8},          // TopKQuery
}

// relation checks a cell's report against its reference cell's.
type relation func(t *testing.T, ref, got *WireReport)

// planeBackend is one column. The first is the dense reference.
type planeBackend struct {
	name string
	opt  scenario.Options
	// replica is the backend a bootstrap replica restores into: adaptive for
	// an exact backend (V2 payloads restore across exact backends), an
	// identically configured filter for bloom (a sketch cannot be inverted).
	replica scenario.Options
	rel     relation // to the dense cell of the same path
}

var (
	denseOpt    = scenario.Options{PointerBackend: pointer.BackendDense}
	adaptiveOpt = scenario.Options{PointerBackend: pointer.BackendAdaptive}
	// A deliberately undersized filter: 64 bits collide at these testbed
	// sizes, so false positives actually occur.
	bloomOpt = scenario.Options{PointerBackend: pointer.BackendBloom, PointerBloomBits: 64, PointerBloomHashes: 2}
)

var planeBackends = []planeBackend{
	{"dense", denseOpt, adaptiveOpt, nil},
	{"adaptive", adaptiveOpt, adaptiveOpt, identical},
	{"bloom", bloomOpt, bloomOpt, bloomOf},
}

// planePath is one row of the evidence-path axis. The paths share one
// source testbed per (scenario, backend); cold and compacted evict it, so
// they come after every path that reads it live.
type planePath struct {
	name string
	ref  int      // index of the same backend's reference path (-1: none)
	rel  relation // to that reference
	cell func(t *testing.T, p *plane) *WireReport
}

var planePaths = []planePath{
	{"in-memory", -1, nil, memoryCell},           // carries no cold accounting
	{"loopback", 0, identical, loopbackCell},     // to in-memory: remote analyzer and POST /diagnose
	{"bootstrap", 0, identical, bootstrapCell},   // to in-memory: a never-replayed replica
	{"cold", 0, coldOf, coldCell},                // to in-memory: every record evicted
	{"compacted", 3, compactedOf, compactedCell}, // to cold: the cold logs compacted
}

// identical: byte-identical wire reports.
func identical(t *testing.T, ref, got *WireReport) {
	t.Helper()
	if want, have := wireJSON(t, ref), wireJSON(t, got); want != have {
		t.Fatalf("report diverged\n--- reference ---\n%s\n--- cell ---\n%s", want, have)
	}
}

// bloomOf: a bloom backend errs in one direction only. The verdict is the
// exact one, because a false-positive host answers an empty round; the
// search radius can only grow, and its extra rounds are charged.
func bloomOf(t *testing.T, exact, got *WireReport) {
	t.Helper()
	if want, have := verdictJSON(t, exact), verdictJSON(t, got); want != have {
		t.Fatalf("bloom verdict diverged\n--- exact ---\n%s\n--- bloom ---\n%s", want, have)
	}
	if got.HostsContacted < exact.HostsContacted {
		t.Fatalf("bloom candidates (%d hosts) below the exact superset floor (%d)", got.HostsContacted, exact.HostsContacted)
	}
	if got.Total() < exact.Total() {
		t.Fatalf("bloom run cheaper than exact (%v < %v): false-positive rounds uncharged", got.Total(), exact.Total())
	}
}

// coldOf: an evicted plane reports the in-memory report plus exactly its
// cold-read-back rounds (total = baseline + cold rounds) and cold counters.
func coldOf(t *testing.T, mem, got *WireReport) {
	t.Helper()
	hot, _ := withoutCold(got)
	identical(t, mem, hot)
}

// compactedOf: compaction changes what an answer costs, never what it is —
// everything but the cold accounting is the cold cell's, and it decodes
// no more segments and charges no more cold-read-back.
func compactedOf(t *testing.T, cold, got *WireReport) {
	t.Helper()
	coldHot, coldCost := withoutCold(cold)
	hot, cost := withoutCold(got)
	identical(t, coldHot, hot)
	if got.ColdSegments > cold.ColdSegments {
		t.Fatalf("compacted plane decoded %d cold segments, had %d", got.ColdSegments, cold.ColdSegments)
	}
	if cost > coldCost {
		t.Fatalf("cold-read-back cost rose from %v to %v", coldCost, cost)
	}
}

// withoutCold returns w without its cold accounting — the cold-read-back
// phases taken off the clock and the cold counters zeroed — and what those
// phases cost.
func withoutCold(w *WireReport) (*WireReport, simtime.Time) {
	hot := *w
	hot.Phases = nil
	var cost simtime.Time
	for _, ph := range w.Phases {
		if ph.Name == rpc.PhaseColdReadBack {
			cost += ph.Duration
			continue
		}
		hot.Phases = append(hot.Phases, ph)
	}
	hot.TotalVirtual -= cost
	hot.QueryRounds -= w.ColdRounds
	hot.ColdSegments, hot.ColdSkippedByIndex, hot.TieredSegments, hot.ColdRounds = 0, 0, 0, 0
	return &hot, cost
}

// verdictJSON canonicalizes the decision content of a report — outcome kind
// plus every answer field — while excluding the search-radius accounting
// (Consulted, HostsContacted, Conclusion, clock), which legitimately grows
// under a sketch backend's false-positive fan-out.
func verdictJSON(t *testing.T, w *WireReport) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"kind":      w.Kind,
		"culprits":  w.Culprits,
		"cascade":   w.Cascade,
		"flows":     w.Flows,
		"links":     w.Links,
		"separated": w.Separated,
		"boundary":  w.Boundary,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// plane is one (scenario, backend) source testbed, played to its horizon,
// and what its cold cell leaves for the compacted cell.
type plane struct {
	sc      planeScenario
	b       planeBackend
	s       *Scenario
	q       analyzer.Query
	answers map[netsim.IPv4]string // every host's answers before eviction
	flows   map[netsim.IPv4][]netsim.FlowKey
	logs    map[netsim.IPv4]*statesync.SegmentLog
	cold    *WireReport
	merged  bool // compaction merged a run
}

func newPlane(t *testing.T, sc planeScenario, b planeBackend) *plane {
	t.Helper()
	s, err := BuildScenarioOpt(sc.name, sc.m, sc.n, b.opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Testbed.Close)
	q, err := s.Query() // plays the scenario to its horizon
	if err != nil {
		t.Fatal(err)
	}
	return &plane{sc: sc, b: b, s: s, q: q}
}

func memoryCell(t *testing.T, p *plane) *WireReport {
	w := runWire(t, p.s.Testbed.Analyzer, p.q)
	if w.Kind == analyzer.KindInconclusive && p.sc.name != "topk" {
		t.Fatalf("in-memory run inconclusive: %s", w.Conclusion)
	}
	if w.ColdSegments != 0 || w.ColdRounds != 0 {
		t.Fatalf("in-memory report carries cold accounting: %d segments, %d rounds", w.ColdSegments, w.ColdRounds)
	}
	return w
}

// loopbackCell runs the remote-backend analyzer in-process (every backend
// call travels HTTP), then the full service path: envelope → POST
// /diagnose → admission → remote analyzer → wire report.
func loopbackCell(t *testing.T, p *plane) *WireReport {
	lb, err := NewLoopback(p.s.Testbed, AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	remote := runWire(t, lb.Analyzer, p.q)
	env, err := Envelope(p.q)
	if err != nil {
		t.Fatal(err)
	}
	served, err := lb.Client.Diagnose(context.Background(), env)
	if err != nil {
		t.Fatalf("/diagnose: %v", err)
	}
	identical(t, remote, served)
	stats, err := lb.Client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Admitted != 1 || stats.InFlight != 0 {
		t.Fatalf("admission stats after one query: %+v", stats)
	}
	return remote
}

// bootstrapCell restores a never-replayed replica from the live source over
// HTTP — host stores as snapshot segments, switch pointer structures from
// snapshots — and diagnoses against the replica only.
func bootstrapCell(t *testing.T, p *plane) *WireReport {
	hostURL, switchURL := serve(t, p.s.Testbed)
	dst, err := BuildScenarioOpt(p.sc.name, p.sc.m, p.sc.n, p.b.replica)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Testbed.Close()
	b := &statesync.Bootstrapper{}
	segs, recs, err := BootstrapHosts(context.Background(), b, hostURL, dst.Testbed)
	if err != nil {
		t.Fatal(err)
	}
	if segs != p.sc.segs || recs != p.sc.records {
		t.Fatalf("bootstrap absorbed %d segments / %d records, want %d / %d", segs, recs, p.sc.segs, p.sc.records)
	}
	if err := BootstrapSwitches(context.Background(), b, switchURL, dst.Testbed); err != nil {
		t.Fatal(err)
	}
	dstHostURL, dstSwitchURL := serve(t, dst.Testbed)
	a, err := NewRemoteAnalyzer(dst.Testbed, HostURLs(dstHostURL, dst.Testbed), SwitchURLs(dstSwitchURL, dst.Testbed), nil)
	if err != nil {
		t.Fatal(err)
	}
	return runWire(t, a, p.q)
}

// coldCell evicts every record into per-host segment logs through staged
// sweeps — repeated 1 ms sweeps fragment each host's history across many
// small epoch-overlapping segments, the state a long-running daemon
// accumulates — and diagnoses the evicted plane. Every host answers all
// five query kinds as it did before the eviction.
func coldCell(t *testing.T, p *plane) *WireReport {
	tb := p.s.Testbed
	p.answers = map[netsim.IPv4]string{}
	p.flows = map[netsim.IPv4][]netsim.FlowKey{}
	p.logs = map[netsim.IPv4]*statesync.SegmentLog{}
	for ip, ag := range tb.HostAgents {
		for _, r := range allRecords(t, ag.Store) {
			p.flows[ip] = append(p.flows[ip], r.Flow)
		}
		p.answers[ip] = hostAnswers(t, ag, p.s.SwitchIDs(), p.flows[ip])
		seglog, err := statesync.NewSegmentLog("")
		if err != nil {
			t.Fatal(err)
		}
		ag.Store.SetRetention(store.Retention{HotEpochs: 1, Alpha: tb.Opt.Alpha, Cold: seglog})
		for sweep := simtime.Millisecond; sweep <= 60*simtime.Millisecond; sweep += simtime.Millisecond {
			if _, err := ag.Store.Maintain(sweep); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ag.Store.Maintain(1 << 40); err != nil {
			t.Fatal(err)
		}
		if ag.Store.Len() != 0 {
			t.Fatalf("host %v still holds %d resident records", ip, ag.Store.Len())
		}
		ag.SetColdReader(seglog)
		p.logs[ip] = seglog
	}
	checkHostAnswers(t, p)
	w := runWire(t, tb.Analyzer, p.q)
	// Alert-driven kinds read headers, whose answers carry cold counters;
	// top-k and flow-size answers carry none.
	if _, cost := withoutCold(w); w.Alert != nil && (w.ColdSegments == 0 || cost == 0) {
		t.Fatalf("evicted-window diagnosis decoded %d cold segments and charged %v", w.ColdSegments, cost)
	}
	p.cold = w
	return w
}

// compactedCell compacts every cold log (runs of ≥ 2 segments) and
// diagnoses again: the host answers stay the pre-eviction ones, and
// wherever a run merged, fewer segments are left and decoded.
func compactedCell(t *testing.T, p *plane) *WireReport {
	if p.cold == nil {
		t.Fatal("no cold cell to compact")
	}
	runs, before, after := 0, 0, 0
	for _, l := range p.logs {
		before += l.Len()
		st, err := l.Compact(context.Background(), statesync.CompactPolicy{MinRun: 2})
		if err != nil {
			t.Fatal(err)
		}
		runs += st.Runs
		after += l.Len()
	}
	p.merged = runs > 0
	if p.merged && after >= before {
		t.Fatalf("compaction merged %d runs but left %d segments, had %d", runs, after, before)
	}
	checkHostAnswers(t, p)
	w := runWire(t, p.s.Testbed.Analyzer, p.q)
	if p.merged && p.cold.ColdSegments > 0 && w.ColdSegments >= p.cold.ColdSegments {
		t.Fatalf("compaction merged %d runs but the diagnosis decoded %d cold segments, had %d", runs, w.ColdSegments, p.cold.ColdSegments)
	}
	return w
}

// checkHostAnswers compares every host's answers with its pre-eviction ones.
func checkHostAnswers(t *testing.T, p *plane) {
	t.Helper()
	for ip, ag := range p.s.Testbed.HostAgents {
		if got := hostAnswers(t, ag, p.s.SwitchIDs(), p.flows[ip]); got != p.answers[ip] {
			t.Fatalf("host %v answers diverged from its pre-eviction ones\n--- before ---\n%s\n--- after ---\n%s", ip, p.answers[ip], got)
		}
	}
}

// runWire runs q on a and returns the wire form of its report.
func runWire(t *testing.T, a *analyzer.Analyzer, q analyzer.Query) *WireReport {
	t.Helper()
	rep, err := a.Run(context.Background(), q)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return WireFromReport(rep)
}

// serve serves tb's host and switch planes until the test ends and returns
// their roots.
func serve(t *testing.T, tb *scenario.Testbed) (hostURL, switchURL string) {
	t.Helper()
	hosts := httptest.NewServer(HostMux(tb, nil))
	t.Cleanup(hosts.Close)
	switches := httptest.NewServer(SwitchMux(tb, nil))
	t.Cleanup(switches.Close)
	return hosts.URL, switches.URL
}

// hostAnswers canonicalizes one agent's answers for all five host query
// kinds — headers, top-k and flow sizes at every switch, record and
// priority of every flow — leaving out the cold counters, which say what an
// answer cost, not what it is.
func hostAnswers(t *testing.T, ag *hostagent.Agent, switches []netsim.NodeID, flows []netsim.FlowKey) string {
	t.Helper()
	ctx := context.Background()
	out := map[string]any{}
	for _, sw := range switches {
		key := fmt.Sprint(sw)
		out["headers/"+key] = ag.QueryHeadersMulti(ctx, []hostagent.HeadersQuery{{Switch: sw, Epochs: store.EveryEpoch}})[0].Records
		out["topk/"+key] = ag.QueryTopK(ctx, sw, 100)
		out["flowsizes/"+key] = ag.QueryFlowSizes(ctx, sw)
	}
	for _, f := range flows {
		rec, ok := ag.LookupRecord(ctx, f)
		prio, known := ag.QueryPriority(ctx, f)
		out["record/"+f.String()] = map[string]any{"rec": rec, "ok": ok}
		out["priority/"+f.String()] = map[string]any{"prio": prio, "known": known}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// checkSegmentCodec: for the records a scenario leaves in its host stores, a
// segment round trip returns deep-equal records that marshal to the same
// JSON bytes — which is why the bootstrap, cold and compacted cells can be
// compared byte for byte — and encoding them twice gives the same bytes.
// (The shapes no scenario produces — TagIdx −1, an empty or nil EpochBytes,
// a single-switch path — are in flowrec's and store's codec tests.)
func checkSegmentCodec(t *testing.T, tb *scenario.Testbed) {
	t.Helper()
	total := 0
	for ip, ag := range tb.HostAgents {
		recs := allRecords(t, ag.Store)
		if len(recs) == 0 {
			continue
		}
		var first, second bytes.Buffer
		if err := store.EncodeSegment(&first, recs); err != nil {
			t.Fatal(err)
		}
		if err := store.EncodeSegment(&second, recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("encoding the same records twice gave different bytes")
		}
		got, err := store.DecodeSegment(&first)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("round trip changed the records of host %v", ip)
		}
		want, _ := json.Marshal(recs)
		if have, _ := json.Marshal(got); !bytes.Equal(have, want) {
			t.Fatalf("round trip changed the JSON of host %v", ip)
		}
		total += len(recs)
	}
	if total == 0 {
		t.Fatal("the scenario left no records")
	}
}

// planeTally sums, over the cells a test ran, what keeps the bloom and
// compacted relations from holding vacuously.
type planeTally struct {
	bloomCells, compactedCells, merged, extraHosts int
	extraClock                                     simtime.Time
}

// check fails t if all wantBloom bloom cells ran and showed no false-positive
// fan-out (extra hosts and extra clock), or all wantCompacted compacted cells
// ran and none merged a run. A -run selection of fewer cells is not judged.
func (c *planeTally) check(t *testing.T, wantBloom, wantCompacted int) {
	t.Helper()
	if wantBloom > 0 && c.bloomCells == wantBloom && (c.extraHosts == 0 || c.extraClock <= 0) {
		t.Fatalf("the bloom cells show %d extra hosts and %v extra clock — 64-bit filters should collide; the relation is vacuous", c.extraHosts, c.extraClock)
	}
	if wantCompacted > 0 && c.compactedCells == wantCompacted && c.merged == 0 {
		t.Fatal("compaction merged no run in any cell — the staged eviction produced none")
	}
}

// planeMatrix is one scenario's cells: a source plane per backend and the
// reports of the cells that have run.
type planeMatrix struct {
	planes []*plane
	done   map[string]*WireReport
	tally  *planeTally
}

func newPlaneMatrix(t *testing.T, sc planeScenario, tally *planeTally) *planeMatrix {
	t.Helper()
	m := &planeMatrix{done: map[string]*WireReport{}, tally: tally}
	for _, b := range planeBackends {
		m.planes = append(m.planes, newPlane(t, sc, b))
	}
	return m
}

// cell runs the cell of path pi and backend bi once. It first computes the
// cells it is compared with (its path's reference and the dense cell of its
// path) if they have not run, so any selection of cells works.
func (m *planeMatrix) cell(t *testing.T, pi, bi int) *WireReport {
	path, b := planePaths[pi], planeBackends[bi]
	key := path.name + "/" + b.name
	if w, ok := m.done[key]; ok {
		return w
	}
	var ref, dense *WireReport
	if path.ref >= 0 {
		ref = m.cell(t, path.ref, bi)
	}
	if b.rel != nil {
		dense = m.cell(t, pi, 0)
	}
	w := path.cell(t, m.planes[bi])
	if ref != nil {
		path.rel(t, ref, w)
	}
	if dense != nil {
		b.rel(t, dense, w)
	}
	if b.opt.PointerBackend == pointer.BackendBloom {
		m.tally.bloomCells++
		m.tally.extraHosts += w.HostsContacted - dense.HostsContacted
		m.tally.extraClock += w.Total() - dense.Total()
	}
	if path.name == "compacted" {
		m.tally.compactedCells++
		if m.planes[bi].merged {
			m.tally.merged++
		}
	}
	m.done[key] = w
	return w
}

// TestPlaneMatrix runs every cell, named scenario/path/backend. Over the
// whole bloom column the false-positive fan-out must be visible, and some
// scenario's compaction must merge a run, so neither relation holds
// vacuously.
func TestPlaneMatrix(t *testing.T) {
	var tally planeTally
	for _, sc := range planeScenarios {
		t.Run(sc.name, func(t *testing.T) {
			m := newPlaneMatrix(t, sc, &tally)
			for pi, path := range planePaths {
				t.Run(path.name, func(t *testing.T) {
					for bi, b := range planeBackends {
						t.Run(b.name, func(t *testing.T) { m.cell(t, pi, bi) })
					}
				})
			}
		})
	}
	tally.check(t, len(planeScenarios)*len(planePaths), len(planeScenarios)*len(planeBackends))
}

// planeSlice runs the path/backend cell of every scenario, each in a subtest
// named after the scenario, and returns what those cells tallied.
func planeSlice(t *testing.T, path, backend string) *planeTally {
	t.Helper()
	pi := slices.IndexFunc(planePaths, func(p planePath) bool { return p.name == path })
	bi := slices.IndexFunc(planeBackends, func(b planeBackend) bool { return b.name == backend })
	if pi < 0 || bi < 0 {
		t.Fatalf("no matrix cell %s/%s", path, backend)
	}
	var tally planeTally
	for _, sc := range planeScenarios {
		t.Run(sc.name, func(t *testing.T) { newPlaneMatrix(t, sc, &tally).cell(t, pi, bi) })
	}
	return &tally
}

// The gates below are single slices of the matrix, one cell per scenario,
// kept as named entry points for the evidence path each one guards.

// TestLoopbackEquivalenceAllKinds: the remote-backend analyzer and POST
// /diagnose through admission, on the default backend.
func TestLoopbackEquivalenceAllKinds(t *testing.T) { planeSlice(t, "loopback", "adaptive") }

// TestBootstrapEquivalenceAllKinds: an adaptive source bootstrapped into an
// adaptive replica.
func TestBootstrapEquivalenceAllKinds(t *testing.T) { planeSlice(t, "bootstrap", "adaptive") }

// TestBootstrapCrossBackendEquivalence: a dense source bootstrapped into an
// adaptive replica.
func TestBootstrapCrossBackendEquivalence(t *testing.T) { planeSlice(t, "bootstrap", "dense") }

// TestBloomDiagnosisCulpritEquivalence: the undersized bloom filter in
// memory, whose false-positive fan-out must show over the six scenarios.
func TestBloomDiagnosisCulpritEquivalence(t *testing.T) {
	planeSlice(t, "in-memory", "bloom").check(t, len(planeScenarios), 0)
}

// TestSegmentCodecEquivalenceAllKinds runs checkSegmentCodec on what each
// scenario leaves in its dense plane's host stores.
func TestSegmentCodecEquivalenceAllKinds(t *testing.T) {
	for _, sc := range planeScenarios {
		t.Run(sc.name, func(t *testing.T) { checkSegmentCodec(t, newPlane(t, sc, planeBackends[0]).s.Testbed) })
	}
}
