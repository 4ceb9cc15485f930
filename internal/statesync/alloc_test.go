//go:build !race

// Allocation pins, in the plain leg only: the race detector instruments
// allocations.

package statesync

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/store"
)

// TestReadSegmentsForgedLengthAllocs: a segment's length is the peer's
// word. A bare header declaring a 64 MiB segment is refused as truncated
// after allocating no more than the read buffer's first 64 KiB.
func TestReadSegmentsForgedLengthAllocs(t *testing.T) {
	forged := bareHeader(store.MaxSegmentBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadSegments(bytes.NewReader(forged), func([]*flowrec.Record) error { return nil })
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "segment 0") {
		t.Fatalf("a bare header read as a snapshot: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a forged %d-byte body allocated %d B, want < 1 MiB", len(forged), grew)
	}
}
