//go:build !race

// Allocation pins, in the plain leg only: the race detector instruments
// allocations.

package statesync

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"switchpointer/internal/flowrec"
)

// TestReadSegmentsForgedLengthAllocs: a frame length is the peer's word. A
// 4-byte body declaring a 64 MiB frame is refused as truncated after
// allocating no more than the frame buffer's first 64 KiB.
func TestReadSegmentsForgedLengthAllocs(t *testing.T) {
	forged := binary.BigEndian.AppendUint32(nil, maxFrameBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadSegments(bytes.NewReader(forged), func([]*flowrec.Record) error { return nil })
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body cut after its frame length read as a snapshot")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a forged 4-byte body allocated %d B, want < 1 MiB", grew)
	}
}
