// Three wall-clock micro-benchmarks: the per-packet datapath stages Figure 9
// is derived from, the simulator's raw event rate, and one 256-record
// segment encode + decode. The deterministic paper figures are not timed
// here; the goldens under internal/experiments/testdata pin them. End-to-end
// real cost is ./benchmark's job.
package switchpointer

import (
	"bytes"
	"testing"

	"switchpointer/internal/experiments"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
)

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

// BenchmarkSimulatorEventRate measures raw simulator throughput (events/s)
// to document the substrate's capacity.
func BenchmarkSimulatorEventRate(b *testing.B) {
	tb, err := New(Dumbbell(2, 2))
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
