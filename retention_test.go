package switchpointer

import (
	"bytes"
	"testing"

	"switchpointer/internal/store"
)

// bufferLog is a store.ColdStore that appends every evicted segment to one
// buffer: the flush stream, a sequence of self-delimiting segments.
type bufferLog struct{ *bytes.Buffer }

func (b bufferLog) WriteSegment(_ store.SegmentManifest, payload []byte) error {
	_, err := b.Write(payload)
	return err
}

// runFlowChurn drives a long simulation whose flow population churns: many
// short UDP flows arrive at one host over virtual time, each leaving a flow
// record behind. Returns the receiving host's agent store size at the end.
func runFlowChurn(t *testing.T, retain *store.Retention, sink *bytes.Buffer) (*Testbed, int) {
	t.Helper()
	tb, err := New(Dumbbell(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	src := tb.Host("L1")
	dst := tb.Host("R1")
	if retain != nil {
		r := *retain
		r.Cold = bufferLog{sink}
		tb.HostAgents[dst.IP()].EnableRetention(r, 10*Millisecond)
	}
	const flows = 64
	for i := 0; i < flows; i++ {
		StartUDP(tb.Net, src, UDPConfig{
			Flow: FlowKey{Src: src.IP(), Dst: dst.IP(),
				SrcPort: uint16(10000 + i), DstPort: 80, Proto: 17},
			RateBps:  100_000_000,
			Start:    Time(i) * 10 * Millisecond,
			Duration: Millisecond,
		})
	}
	tb.Run(Time(flows+10) * 10 * Millisecond)
	return tb, tb.HostAgents[dst.IP()].Store.Len()
}

// TestStoreRetentionBoundsLongSimulation is the eviction satellite's gate:
// without a policy a long simulation's store grows with every flow ever
// seen; with WithRetention-style config the resident set stays within the
// hot window, and everything evicted is recoverable from the sink.
func TestStoreRetentionBoundsLongSimulation(t *testing.T) {
	_, unbounded := runFlowChurn(t, nil, nil)
	if unbounded != 64 {
		t.Fatalf("control run holds %d records, want 64 (one per flow)", unbounded)
	}

	var sink bytes.Buffer
	tb, bounded := runFlowChurn(t, &store.Retention{
		HotEpochs:  5,
		Alpha:      10 * Millisecond,
		MaxRecords: 16,
	}, &sink)
	if bounded > 16 {
		t.Fatalf("retained run holds %d records, want ≤ 16", bounded)
	}
	ag := tb.HostAgents[tb.Host("R1").IP()]
	evicted := ag.Store.Evicted()
	if evicted == 0 {
		t.Fatal("no evictions despite churn")
	}
	if int(evicted)+bounded != 64 {
		t.Fatalf("accounting: %d evicted + %d resident != 64", evicted, bounded)
	}

	// Every evicted record is recoverable from the flush stream: the sink
	// holds a sequence of self-delimiting segments.
	archive := store.New()
	total := 0
	for sink.Len() > 0 {
		segment, err := store.DecodeSegment(&sink)
		if err != nil {
			t.Fatalf("decoding eviction segment: %v", err)
		}
		for _, r := range segment {
			archive.Put(r)
			total++
		}
	}
	if total != int(evicted) {
		t.Fatalf("sink holds %d records, want %d", total, evicted)
	}
	if archive.Len() == 0 {
		t.Fatal("archive reconstruction empty")
	}
}
