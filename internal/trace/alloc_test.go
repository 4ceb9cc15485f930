//go:build !race

package trace

import (
	"testing"

	"switchpointer/internal/simtime"
)

var idSink string

// TestRecorderAllocBudget: a diagnosis of up to eight annotated phases is
// recorded in the recorder's inline arena, so the recorder and the trace
// snapshot are the only allocations.
func TestRecorderAllocBudget(t *testing.T) {
	var tr Trace
	allocs := testing.AllocsPerRun(100, func() {
		rec := NewRecorder("sp-1", "analyzer", "contention")
		rec.Anchor(0)
		for i := 0; i < 8; i++ {
			rec.Phase("diagnosis", simtime.Time(i), simtime.Time(i+1))
			rec.AnnotateLast(Attr{Key: "servers", Value: "4"})
		}
		rec.Finish(8)
		tr = rec.Trace()
	})
	if allocs > 3 {
		t.Fatalf("recorder with 8 annotated phases + Trace: %.0f allocations, want ≤ 3", allocs)
	}
	if len(tr.Spans) != 9 || len(tr.Spans[8].Attrs) != 1 {
		t.Fatalf("trace: %+v", tr)
	}
}

// TestNewIDAllocBudget: the ID string is NewID's only allocation.
func TestNewIDAllocBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		idSink = NewID("contention", "10.0.0.1:1000->10.0.0.2:80/6", "12345", "throughput-drop", "10.0.0.2")
	})
	if allocs != 1 {
		t.Fatalf("NewID: %.0f allocations, want 1", allocs)
	}
}
