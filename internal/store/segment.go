package store

import (
	"bytes"
	"fmt"
	"io"

	"switchpointer/internal/flowrec"
)

// EncodeSegment writes one self-delimiting segment (package flowrec documents
// the format) — the form of every eviction segment and snapshot frame.
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

// DecodeSegment reads exactly one segment from r and decodes it.
func DecodeSegment(r io.Reader) ([]*flowrec.Record, error) {
	var hdr [flowrec.SegmentHeaderLen]byte
	n, _ := io.ReadFull(r, hdr[:]) // a short read fails SegmentLen
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
	recs, _, err := flowrec.DecodeSegment(buf.Bytes(), nil)
	if err != nil {
		return nil, fmt.Errorf("store: decode segment: %w", err)
	}
	return recs, nil
}
