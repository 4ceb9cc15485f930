package statesync

import (
	"bytes"
	"strings"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/store"
)

// TestReadSegmentsBoundsFrames: a segment header's length is the peer's
// word, so a forged one is refused before it sizes a buffer, and a segment
// shorter than its header said is an error naming the segment, not a short
// read.
func TestReadSegmentsBoundsFrames(t *testing.T) {
	var seg bytes.Buffer
	if err := store.EncodeSegment(&seg, []*flowrec.Record{coldRecord(1, 1, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	one := seg.Bytes()
	none := func([]*flowrec.Record) error { return nil }

	if segs, recs, err := ReadSegments(bytes.NewReader(append(bytes.Clone(one), one...)), none); err != nil || segs != 2 || recs != 2 {
		t.Fatalf("two good segments: %d segments, %d records, %v", segs, recs, err)
	}

	// One good segment, then a header claiming 4 GiB with nothing behind it.
	forged := append(bytes.Clone(one), bareHeader(1<<32-1)...)
	allocs := testing.AllocsPerRun(5, func() {
		segs, _, err := ReadSegments(bytes.NewReader(forged), none)
		if err == nil || segs != 1 || !strings.Contains(err.Error(), "segment 1") {
			t.Fatalf("forged length: %d segments, %v", segs, err)
		}
	})
	if allocs > 40 { // one small segment's decode; nothing sized by the forged length
		t.Fatalf("forged length cost %.0f allocations", allocs)
	}
	overLimit := bareHeader(store.MaxSegmentBytes + 1)
	if _, _, err := ReadSegments(bytes.NewReader(overLimit), none); err == nil || !strings.Contains(err.Error(), "segment 0") {
		t.Fatalf("a segment one byte above the limit: %v", err)
	}

	for cut := 1; cut < len(one); cut++ {
		segs, _, err := ReadSegments(bytes.NewReader(append(bytes.Clone(one), one[:cut]...)), none)
		if err == nil || segs != 1 || !strings.Contains(err.Error(), "segment 1") {
			t.Fatalf("second segment cut to %d bytes: %d segments, %v", cut, segs, err)
		}
	}
}
