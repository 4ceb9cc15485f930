// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment end to end and reports
// the headline quantity via b.ReportMetric; cmd/spbench renders the full
// artifacts. Shapes (who wins, by what factor, where crossovers fall) are
// asserted in the package test suites; the benchmarks measure cost.
package switchpointer

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/cluster"
	"switchpointer/internal/experiments"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/metrics"
	"switchpointer/internal/netsim"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
)

func runExperiment(b *testing.B, run func() (*experiments.Result, error)) *experiments.Result {
	b.Helper()
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// cell parses a numeric table cell.
func cell(b *testing.B, res *experiments.Result, table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(res.Tables[table].Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell(%d,%d,%d): %v", table, row, col, err)
	}
	return v
}

// BenchmarkFig2aPriorityContention regenerates Figure 2(a): throughput and
// inter-packet arrival timelines of the low-priority TCP flow under five
// high-priority UDP burst batches, m ∈ {1,2,4,8,16}.
func BenchmarkFig2aPriorityContention(b *testing.B) {
	res := runExperiment(b, experiments.Fig2a)
	// Summary table: max inter-packet gap at m=16 (paper: up to ~8–10 ms).
	b.ReportMetric(cell(b, res, 2, 4, 2), "maxgap_m16_ms")
}

// BenchmarkFig2bMicroburst regenerates Figure 2(b): the FIFO variant.
func BenchmarkFig2bMicroburst(b *testing.B) {
	res := runExperiment(b, experiments.Fig2b)
	b.ReportMetric(cell(b, res, 2, 4, 2), "maxgap_m16_ms")
}

// BenchmarkFig3RedLights regenerates Figure 3: victim throughput at S1/S2
// across two sequential 400 µs red lights.
func BenchmarkFig3RedLights(b *testing.B) {
	res := runExperiment(b, experiments.Fig3)
	// Throughput at S2 in the red-light window (row 11 ≈ t=5.5ms).
	b.ReportMetric(cell(b, res, 0, 11, 2), "s2_gbps_at_5p5ms")
}

// BenchmarkFig4Cascades regenerates Figure 4: flow timelines with and
// without the traffic cascade.
func BenchmarkFig4Cascades(b *testing.B) {
	runExperiment(b, experiments.Fig4)
}

// BenchmarkFig7DebuggingTime regenerates Figure 7: the four-phase debugging
// time breakdown for priority contention, m ∈ {1..16}.
func BenchmarkFig7DebuggingTime(b *testing.B) {
	res := runExperiment(b, experiments.Fig7)
	rows := res.Tables[0].Rows
	b.ReportMetric(cell(b, res, 0, len(rows)-1, 5), "total_m16_ms")
}

// BenchmarkFig8LoadImbalance regenerates Figure 8: load-imbalance diagnosis
// latency versus servers with relevant flows (4..96).
func BenchmarkFig8LoadImbalance(b *testing.B) {
	res := runExperiment(b, experiments.Fig8)
	rows := res.Tables[0].Rows
	b.ReportMetric(cell(b, res, 0, len(rows)-1, 1), "diag_96srv_ms")
}

// BenchmarkFig9DatapathThroughput regenerates Figure 9: measured datapath
// throughput vs packet size for the OVS-like baseline and SwitchPointer
// k=1/k=5.
func BenchmarkFig9DatapathThroughput(b *testing.B) {
	res := runExperiment(b, experiments.Fig9)
	b.ReportMetric(cell(b, res, 0, 2, 3), "k5_gbps_256B")
	b.ReportMetric(cell(b, res, 0, 0, 1), "baseline_gbps_64B")
}

// BenchmarkFig9PerPacket measures the raw per-packet pipeline costs that
// Figure 9 is derived from.
func BenchmarkFig9PerPacket(b *testing.B) {
	d, err := experiments.NewDatapathBench()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.StepBaseline(i)
		}
	})
	b.Run("switchpointer-k1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.StepSwitchPointer(i, 1)
		}
	})
	b.Run("switchpointer-k5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.StepSwitchPointer(i, 5)
		}
	})
	_ = d.Sink()
}

// BenchmarkFig10aMemory regenerates Figure 10(a): switch memory vs k over
// the paper's (n, α) grid, with measured structures and measured MPHs.
func BenchmarkFig10aMemory(b *testing.B) {
	res := runExperiment(b, experiments.Fig10a)
	b.ReportMetric(cell(b, res, 0, 2, 2), "mem_MB_n1M_a10_k3")
}

// BenchmarkFig10bBandwidth regenerates Figure 10(b): data→control plane
// bandwidth vs k.
func BenchmarkFig10bBandwidth(b *testing.B) {
	res := runExperiment(b, experiments.Fig10b)
	b.ReportMetric(cell(b, res, 0, 0, 2), "bw_Mbps_n1M_a10_k1")
}

// BenchmarkPointerBackends regenerates the pointer slot-backend ablation:
// adaptive/dense/bloom resident memory, push bytes, and candidate accuracy
// on the sparse 4096-active-host workload at n = 100K and 1M. The run
// itself enforces the gates (adaptive byte-identical to dense, zero bloom
// false negatives, ≥10× resident reduction at 1M, constant bloom memory).
func BenchmarkPointerBackends(b *testing.B) {
	res := runExperiment(b, experiments.AblationPointerMemory)
	b.ReportMetric(cell(b, res, 0, 3, 2), "dense_res_B_n1M")
	b.ReportMetric(cell(b, res, 0, 4, 2), "adaptive_res_B_n1M")
	b.ReportMetric(cell(b, res, 1, 0, 1), "res_ratio_n1M")
	b.ReportMetric(cell(b, res, 1, 1, 1), "bloom_mem_B")
	b.ReportMetric(cell(b, res, 0, 5, 6), "bloom_fp_n1M")
}

// BenchmarkFig11Recycling regenerates Figure 11: pointer recycling periods.
func BenchmarkFig11Recycling(b *testing.B) {
	res := runExperiment(b, experiments.Fig11)
	b.ReportMetric(cell(b, res, 0, 0, 2), "level2_ms_a10")
}

// BenchmarkFig12QueryResponse regenerates Figure 12: top-100 query response
// time, SwitchPointer vs PathDump, 96 servers.
func BenchmarkFig12QueryResponse(b *testing.B) {
	res := runExperiment(b, experiments.Fig12)
	rows := res.Tables[0].Rows
	b.ReportMetric(cell(b, res, 0, len(rows)-1, 2), "pathdump_96srv_ms")
	b.ReportMetric(cell(b, res, 0, 0, 1), "sp_1srv_ms")
}

// BenchmarkSec61Memory regenerates the §6.1 memory constants.
func BenchmarkSec61Memory(b *testing.B) {
	res := runExperiment(b, experiments.Sec61Memory)
	b.ReportMetric(cell(b, res, 0, 0, 1), "mph_100K_KB")
}

// BenchmarkAblationRPCPooling quantifies the §6.2 connection-pooling fix.
func BenchmarkAblationRPCPooling(b *testing.B) {
	runExperiment(b, experiments.AblationRPCPooling)
}

// BenchmarkAblationStrawmanHash quantifies the §4.1.2 strawman hash table
// against the minimal perfect hash.
func BenchmarkAblationStrawmanHash(b *testing.B) {
	runExperiment(b, experiments.AblationStrawmanHash)
}

// BenchmarkAblationPruning quantifies the §4.3 search-radius reduction.
func BenchmarkAblationPruning(b *testing.B) {
	runExperiment(b, experiments.AblationPruning)
}

// BenchmarkAblationHeaderModes compares commodity vs INT embedding.
func BenchmarkAblationHeaderModes(b *testing.B) {
	runExperiment(b, experiments.AblationHeaderModes)
}

// BenchmarkEndToEndRedLightsDiagnosis measures the complete §5.2 pipeline:
// simulate, trigger, diagnose.
func BenchmarkEndToEndRedLightsDiagnosis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := NewTestbed(Chain(2, 2, 2), Options{Queue: QueuePriority})
		if err != nil {
			b.Fatal(err)
		}
		a := tb.Host("h1-1")
		f := tb.Host("h3-2")
		victim := FlowKey{Src: a.IP(), Dst: f.IP(), SrcPort: 1, DstPort: 2, Proto: 6}
		StartTCP(tb.Net, a, f, TCPConfig{Flow: victim, Priority: 1, Duration: 10 * Millisecond})
		bHost := tb.Host("h1-2")
		dHost := tb.Host("h2-2")
		StartUDP(tb.Net, bHost, UDPConfig{
			Flow:     FlowKey{Src: bHost.IP(), Dst: dHost.IP(), SrcPort: 3, DstPort: 4, Proto: 17},
			Priority: 7, RateBps: 1_000_000_000,
			Start: 5 * Millisecond, Duration: 400 * Microsecond})
		tb.Run(30 * Millisecond)
		if alert, ok := tb.AlertFor(victim); ok {
			tb.Analyzer.Run(context.Background(), ContentionQuery{Alert: alert}) //nolint:errcheck
		}
	}
}

// BenchmarkSimulatorEventRate measures raw simulator throughput (events/s)
// to document the substrate's capacity.
func BenchmarkSimulatorEventRate(b *testing.B) {
	tb, err := NewTestbed(Dumbbell(2, 2), Options{})
	if err != nil {
		b.Fatal(err)
	}
	src := tb.Host("L1")
	dst := tb.Host("R1")
	StartUDP(tb.Net, src, UDPConfig{
		Flow:    FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 2, Proto: 17},
		RateBps: 1_000_000_000, Duration: simtime.Second * 3600,
	})
	b.ResetTimer()
	horizon := tb.Net.Now()
	for i := 0; i < b.N; i++ {
		horizon += Millisecond
		tb.Net.RunUntil(horizon)
	}
	b.ReportMetric(float64(tb.Net.Engine.Processed())/float64(b.N), "events/iter")
}

// BenchmarkAblationPacketMix quantifies the §6.1 acceptability argument:
// sustained throughput under realistic datacenter packet mixes.
func BenchmarkAblationPacketMix(b *testing.B) {
	res := runExperiment(b, experiments.AblationPacketMix)
	// enterprise-dc row, SwitchPointer k=5 column.
	b.ReportMetric(cell(b, res, 0, 2, 4), "k5_gbps_enterprise")
}

// BenchmarkDiagnosisThroughput runs the multi-query analyzer experiment:
// overlapping alert diagnoses through the admission controller at limits
// 1/4/16 with an emulated per-round network RTT. All metrics are wall-clock
// (reports/sec) and legitimately vary run to run — exempt from the bench
// drift gate.
func BenchmarkDiagnosisThroughput(b *testing.B) {
	res := runExperiment(b, experiments.DiagnosisThroughput)
	b.ReportMetric(cell(b, res, 0, 0, 3), "reports_per_sec_limit1")
	b.ReportMetric(cell(b, res, 0, 1, 3), "reports_per_sec_limit4")
	b.ReportMetric(cell(b, res, 0, 2, 3), "reports_per_sec_limit16")
}

// BenchmarkSnapshotBootstrap measures the state-sync snapshot leg end to
// end: a live red-lights host plane served over real loopback HTTP, each
// iteration bootstrapping a fresh record store for every host from it —
// segment encode, frame, stream, decode, Put. The network is emulated at
// 250 µs per pull round at the Bootstrapper's latency seam (this container
// has 1 CPU, so deployment-real RTT is emulated, not measured — the same
// convention as BenchmarkDiagnosisThroughput). segments/op and records/op
// are deterministic scenario properties: a drift means segments were lost
// on the wire.
func BenchmarkSnapshotBootstrap(b *testing.B) {
	s, err := cluster.BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s.Run()
	srv := httptest.NewServer(cluster.HostMux(s.Testbed, nil))
	defer srv.Close()

	ips := s.HostIPs()
	boot := &statesync.Bootstrapper{RTT: 250 * time.Microsecond}
	var segments, records int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		for _, ip := range ips {
			st := store.New()
			sg, rc, err := boot.BootstrapStore(context.Background(), srv.URL+"/hosts/"+ip.String(), store.EveryEpoch, st)
			if err != nil {
				b.Fatal(err)
			}
			segments += sg
			records += rc
			got += rc
		}
		if got == 0 {
			b.Fatal("bootstrap absorbed no records")
		}
	}
	b.ReportMetric(float64(segments)/float64(b.N), "segments/op")
	b.ReportMetric(float64(records)/float64(b.N), "records/op")
}

// BenchmarkColdQueryIndexed measures the cold-tier manifest index on a
// fragmented segment log: 256 segments of 4 flows each, one flow-filtered
// header query whose answer lives in 3 of them. segments_decoded/op and
// segments_skipped/op are deterministic index properties — decoded staying
// near the answer size (plus bloom false-positive slack) is the "query
// cost proportional to the answer" claim; records_scanned/op counts what
// the surviving decodes actually read.
func BenchmarkColdQueryIndexed(b *testing.B) {
	const segs = 256
	l, err := statesync.NewSegmentLog("")
	if err != nil {
		b.Fatal(err)
	}
	coldRec := func(port uint16) *flowrec.Record {
		flow := netsim.FlowKey{Src: netsim.IP(10, 0, 0, 2), Dst: netsim.IP(10, 1, byte(port>>8), byte(port)),
			SrcPort: port, DstPort: 80, Proto: 6}
		r := flowrec.New(flow)
		r.Path = []netsim.NodeID{1}
		r.Epochs = []simtime.EpochRange{{Lo: 0, Hi: 8}}
		r.LastSeen = 1
		r.Pkts = 1
		return r
	}
	var want []netsim.FlowKey
	for i := 0; i < segs; i++ {
		var recs []*flowrec.Record
		for j := 0; j < 4; j++ {
			recs = append(recs, coldRec(uint16(i*4+j+1)))
		}
		var buf strings.Builder
		if err := store.EncodeSegment(&buf, recs); err != nil {
			b.Fatal(err)
		}
		m := store.NewSegmentManifest(recs)
		m.Bytes = buf.Len()
		if err := l.WriteSegment(m, []byte(buf.String())); err != nil {
			b.Fatal(err)
		}
		if i == 0 || i == 101 || i == 202 {
			want = append(want, recs[0].Flow)
		}
	}
	ag := &hostagent.Agent{Store: store.New()}
	ag.SetColdReader(l)
	q := hostagent.HeadersQuery{Switch: 1, Epochs: simtime.EpochRange{Lo: 0, Hi: 1 << 30}, Flows: want}
	var decoded, skipped, scanned int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans := ag.QueryHeaders(context.Background(), q)
		if len(ans.Records) != len(want) {
			b.Fatalf("answer held %d records, want %d", len(ans.Records), len(want))
		}
		if ans.ColdSegments > len(want)+8 {
			b.Fatalf("index stopped working: decoded %d of %d segments", ans.ColdSegments, segs)
		}
		decoded += ans.ColdSegments
		skipped += ans.ColdSkippedByIndex
		scanned += ans.ColdRecords
	}
	b.ReportMetric(float64(decoded)/float64(b.N), "segments_decoded/op")
	b.ReportMetric(float64(skipped)/float64(b.N), "segments_skipped/op")
	b.ReportMetric(float64(scanned)/float64(b.N), "records_scanned/op")
}

// BenchmarkSegmentCodec measures one encode plus one decode of a 256-record
// segment (five-switch paths, one exact epoch each — diag-heavy's cold
// segment shape): what an eviction sweep pays to write a segment and a cold
// read pays to get it back. B/op and allocs/op are the figures to watch;
// bytes/segment is exact.
func BenchmarkSegmentCodec(b *testing.B) {
	recs := make([]*flowrec.Record, 256)
	for i := range recs {
		r := flowrec.New(netsim.FlowKey{Src: netsim.IP(10, 0, byte(i>>8), byte(i)), Dst: netsim.IP(10, 1, 0, 2),
			SrcPort: uint16(1024 + i), DstPort: 80, Proto: 6})
		r.Path = []netsim.NodeID{3, 17, 40, 18, 5}
		for j := range r.Path {
			r.Epochs = append(r.Epochs, simtime.EpochRange{Lo: simtime.Epoch(1000 + i + j), Hi: simtime.Epoch(1001 + i + j)})
		}
		r.TagIdx = 2
		r.Bytes, r.Pkts = uint64(1500*(i+1)), uint64(i+1)
		r.EpochBytes[r.Epochs[2].Lo] = r.Bytes
		r.FirstSeen, r.LastSeen = simtime.Time(i)*simtime.Millisecond, simtime.Time(i+1)*simtime.Millisecond
		recs[i] = r
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := store.EncodeSegment(&buf, recs); err != nil {
			b.Fatal(err)
		}
		got, err := store.DecodeSegmentBytes(buf.Bytes())
		if err != nil || len(got) != len(recs) {
			b.Fatalf("decoded %d records, %v", len(got), err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/segment")
}

// BenchmarkMetricsScrape measures one Prometheus text render of a host
// daemon's full metric registry over the redlights testbed — the scrape
// cost every monitoring interval pays. The reported family/sample/byte
// counts are frozen virtual-time quantities (the registry carries no
// wall-clock families), so the drift gate pins them exactly.
func BenchmarkMetricsScrape(b *testing.B) {
	s, err := cluster.BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Testbed.Close()
	s.Run()
	reg := cluster.HostRegistry(s.Testbed, nil)
	var raw []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw = reg.Render()
	}
	b.StopTimer()
	fams, err := metrics.ParseText(bytes.NewReader(raw))
	if err != nil {
		b.Fatalf("render does not parse: %v", err)
	}
	samples := 0
	for _, f := range fams {
		samples += len(f.Samples)
	}
	b.ReportMetric(float64(len(fams)), "families/op")
	b.ReportMetric(float64(samples), "samples/op")
	b.ReportMetric(float64(len(raw)), "rendered_bytes/op")
}

// stormRunner is an instantly-returning Runner for the alert-storm bench.
type stormRunner struct{}

func (stormRunner) Run(ctx context.Context, q analyzer.Query) (*analyzer.Report, error) {
	return &analyzer.Report{Kind: analyzer.KindInconclusive}, nil
}

// BenchmarkAlertStorm replays the canonical deterministic alert storm — 10
// waves × 20 flows, 100 ms apart on the virtual clock — through the
// enrichment/dedup/rate-limit pipeline into a live admission controller.
// Dedup (1 s window) and the token bucket (rate 1/s, burst 8) are clocked
// on the alerts' own DetectedAt, so the suppressed/admitted split is exact
// and drift-gated: 8 of 200 alerts reach admission.
func BenchmarkAlertStorm(b *testing.B) {
	var st cluster.PipelineStats
	var admitted uint64
	for i := 0; i < b.N; i++ {
		ad := cluster.NewAdmission(stormRunner{}, cluster.AdmissionConfig{MaxInFlight: 2, MaxQueued: 64})
		p := cluster.NewAlertPipeline(nil, cluster.PipelineConfig{
			DedupWindow: simtime.Second,
			Rate:        1,
			Burst:       8,
		}, func(ea cluster.EnrichedAlert) {
			if _, err := ad.Run(context.Background(), ea.Query); err != nil {
				b.Fatal(err)
			}
		})
		for wave := 0; wave < 10; wave++ {
			at := simtime.Time(wave) * 100 * simtime.Millisecond
			for f := 0; f < 20; f++ {
				p.Offer(hostagent.Alert{
					Kind:       hostagent.AlertThroughputDrop,
					Flow:       netsim.FlowKey{Src: netsim.IPv4(0x0a000001), Dst: netsim.IPv4(0x0a000100 + uint32(f)), SrcPort: 1000, DstPort: 80},
					DetectedAt: at,
				})
			}
		}
		st = p.Stats()
		admitted = ad.Stats().Admitted
		if st.Forwarded != admitted {
			b.Fatalf("forwarded %d != admitted %d", st.Forwarded, admitted)
		}
	}
	b.ReportMetric(float64(st.Received), "alerts/op")
	b.ReportMetric(float64(st.Deduped+st.RateLimited), "suppressed/op")
	b.ReportMetric(float64(admitted), "admitted/op")
}

// BenchmarkTraceOverhead measures what always-on tracing costs one in-memory
// red-lights diagnosis: the untraced arm runs with Analyzer.DisableTracing
// set, the traced arm with the default recorder wired through the rpc.Clock.
// The span count is deterministic (root + one span per charged phase, the
// same every run — the drift-gated assertion that tracing is an observer of
// the virtual clock, never a participant). Tracing overhead lands within
// noise of the untraced arm on the pinned 1-CPU runner (≤5% ns/op).
func BenchmarkTraceOverhead(b *testing.B) {
	s, err := cluster.BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Testbed.Close()
	q, err := s.Query()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"untraced", true}, {"traced", false}} {
		b.Run(mode.name, func(b *testing.B) {
			s.Testbed.Analyzer.DisableTracing = mode.disable
			defer func() { s.Testbed.Analyzer.DisableTracing = false }()
			spans := 0
			for i := 0; i < b.N; i++ {
				rep, err := s.Testbed.Analyzer.Run(context.Background(), q)
				if err != nil {
					b.Fatal(err)
				}
				if mode.disable {
					if rep.Trace != nil {
						b.Fatal("untraced run produced a trace")
					}
				} else {
					spans = len(rep.Trace.Spans)
				}
			}
			if !mode.disable {
				b.ReportMetric(float64(spans), "spans")
			}
		})
	}
}
