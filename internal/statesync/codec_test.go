package statesync

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/store"
)

// TestReadSegmentsBoundsFrames: the frame length is the peer's word, so a
// forged one is refused before it sizes a buffer, and a frame shorter than
// its header said is an error naming the frame, not a short read.
func TestReadSegmentsBoundsFrames(t *testing.T) {
	var seg bytes.Buffer
	if err := store.EncodeSegment(&seg, []*flowrec.Record{coldRecord(1, 1, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(seg.Len()))
	frame = append(frame, seg.Bytes()...)
	none := func([]*flowrec.Record) error { return nil }

	if segs, recs, err := ReadSegments(bytes.NewReader(append(bytes.Clone(frame), frame...)), none); err != nil || segs != 2 || recs != 2 {
		t.Fatalf("two good frames: %d segments, %d records, %v", segs, recs, err)
	}

	// One good frame, then a header claiming 4 GiB − 1 with nothing behind it.
	forged := append(bytes.Clone(frame), 0xff, 0xff, 0xff, 0xff)
	allocs := testing.AllocsPerRun(5, func() {
		segs, _, err := ReadSegments(bytes.NewReader(forged), none)
		if err == nil || segs != 1 || !strings.Contains(err.Error(), "frame 1") {
			t.Fatalf("forged length: %d segments, %v", segs, err)
		}
	})
	if allocs > 40 { // one small segment's decode; nothing sized by the forged length
		t.Fatalf("forged length cost %.0f allocations", allocs)
	}
	atLimit := binary.BigEndian.AppendUint32(nil, maxFrameBytes+1)
	if _, _, err := ReadSegments(bytes.NewReader(atLimit), none); err == nil || !strings.Contains(err.Error(), "frame 0") {
		t.Fatalf("a frame one byte above the limit: %v", err)
	}

	for cut := 1; cut < len(frame); cut++ {
		segs, _, err := ReadSegments(bytes.NewReader(append(bytes.Clone(frame), frame[:cut]...)), none)
		if err == nil || segs != 1 {
			t.Fatalf("second frame cut to %d bytes: %d segments, %v", cut, segs, err)
		}
		if cut > 4 && !strings.Contains(err.Error(), "segment 1") {
			t.Fatalf("truncation error does not name the frame: %v", err)
		}
	}
}
