package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"switchpointer/internal/flowrec"
)

// EncodeSegment writes one self-delimiting segment (package flowrec documents
// the format) — what Flush and every eviction sink write and Load reads.
// Segments decode independently, and equal records give equal bytes.
func EncodeSegment(w io.Writer, recs []*flowrec.Record) error {
	buf, err := flowrec.AppendSegment(nil, recs)
	if err == nil {
		_, err = w.Write(buf)
	}
	if err != nil {
		return fmt.Errorf("store: encode segment: %w", err)
	}
	return nil
}

// DecodeSegment reads exactly one segment from r and decodes it. Input
// without the segment magic is decoded as the gob segment builds up to PR 11
// wrote (that fallback may read past the end of its segment).
func DecodeSegment(r io.Reader) ([]*flowrec.Record, error) {
	var hdr [flowrec.SegmentHeaderLen]byte
	n, _ := io.ReadFull(r, hdr[:]) // a short read fails one of the two checks below
	if !flowrec.HasSegmentMagic(hdr[:n]) {
		return decodeLegacyGob(io.MultiReader(bytes.NewReader(hdr[:n]), r))
	}
	total, err := flowrec.SegmentLen(hdr[:n])
	if err != nil {
		return nil, fmt.Errorf("store: decode segment: %w", err)
	}
	var buf bytes.Buffer // sized on the header's word up to 64 KiB; grows as bytes arrive
	buf.Grow(min(total, 64<<10) + bytes.MinRead)
	buf.Write(hdr[:])
	if _, err := io.CopyN(&buf, r, int64(total-len(hdr))); err != nil {
		return nil, fmt.Errorf("store: decode segment: truncated: %w", err)
	}
	return DecodeSegmentBytes(buf.Bytes())
}

// DecodeSegmentBytes is DecodeSegment for a segment already in memory;
// payload holds exactly one segment and is not retained.
func DecodeSegmentBytes(payload []byte) ([]*flowrec.Record, error) {
	recs, _, err := FilterSegment(payload, nil)
	return recs, err
}

// FilterSegment decodes the one segment in payload and returns the records
// keep admits (nil keep admits all; package flowrec states keep's contract)
// with the segment's full record count. payload is not retained. A legacy
// gob segment is decoded whole, then filtered.
func FilterSegment(payload []byte, keep func(*flowrec.Record) bool) ([]*flowrec.Record, int, error) {
	if !flowrec.HasSegmentMagic(payload) {
		recs, err := decodeLegacyGob(bytes.NewReader(payload))
		n := len(recs)
		if keep != nil {
			recs = slices.DeleteFunc(recs, func(r *flowrec.Record) bool { return !keep(r) })
		}
		return recs, n, err
	}
	recs, n, err := flowrec.DecodeSegment(payload, keep)
	if err != nil {
		return nil, 0, fmt.Errorf("store: decode segment: %w", err)
	}
	return recs, n, nil
}

// decodeLegacyGob is the read-only path for logs written before the segment
// codec existed; compaction rewrites what it reads in the current format.
func decodeLegacyGob(r io.Reader) ([]*flowrec.Record, error) {
	var snap struct{ Records []*flowrec.Record }
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("store: decode segment: %w", err)
	}
	return snap.Records, nil
}
