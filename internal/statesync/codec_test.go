package statesync

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// TestLegacyGobLogUpgradesOnCompact: a directory written by a build up to
// PR 11 — gob payloads under seg-NNNNNN.gob names — opens and reads, new
// segments land beside it as .seg, and one Compact rewrites the legacy run
// in the current format with the same records.
func TestLegacyGobLogUpgradesOnCompact(t *testing.T) {
	legacy, err := os.ReadFile("../store/testdata/segment_pr11.gob")
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.DecodeSegmentBytes(legacy)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var lines []string
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seg-%06d.gob", i)), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		m := store.NewSegmentManifest(want)
		m.Bytes = len(legacy)
		line, _ := json.Marshal(manifestLine{SegmentManifest: m, File: fmt.Sprintf("seg-%06d.gob", i)})
		lines = append(lines, string(line))
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := NewSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := dirNames(t, dir); len(got) != 2 {
		t.Fatalf("reopen touched the legacy payloads: %v", got)
	}
	var got []*flowrec.Record
	if err := l.ReadSegment(1, func(r *flowrec.Record) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy segment read back %v, want %v", got, want)
	}

	// A new segment takes the next id, under the new name.
	writeSeg(t, l, coldRecord(9, 9, 1<<41, 1<<41))
	if _, err := os.Stat(filepath.Join(dir, segFileName(2))); err != nil {
		t.Fatalf("new segment not written as %s: %v", segFileName(2), err)
	}

	st, err := l.Compact(context.Background(), CompactPolicy{MinRun: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsIn != 2 || st.SegmentsOut != 1 || st.RecordsOut != len(want) || st.BytesOut >= st.BytesIn {
		t.Fatalf("compaction stats %+v", st)
	}
	names := dirNames(t, dir)
	if fmt.Sprint(names) != fmt.Sprint([]string{segFileName(2), segFileName(3)}) {
		t.Fatalf("after compaction the directory holds %v", names)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segFileName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if !flowrec.HasSegmentMagic(raw) {
		t.Fatal("compaction rewrote the legacy run as something other than a codec segment")
	}
	re, err := NewSegmentLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	merged := readAll(t, re, 0)
	if len(merged) != len(want) {
		t.Fatalf("merged segment holds %d records, want %d", len(merged), len(want))
	}
	for _, w := range want {
		if !reflect.DeepEqual(merged[w.Flow], w) {
			t.Fatalf("record %v changed across the upgrade: %v", w, merged[w.Flow])
		}
	}
}
