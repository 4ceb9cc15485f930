package store

import (
	"bytes"
	"fmt"
	"io"

	"switchpointer/internal/flowrec"
)

// MaxSegmentBytes is the largest segment, header included, DecodeSegment
// reads: the length a header declares is the writer's word.
const MaxSegmentBytes = 64 << 20

// EncodeSegment writes one self-delimiting segment (package flowrec documents
// the format) — the form of every eviction segment and snapshot body.
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

// DecodeSegment reads exactly one segment from r and decodes it: the one
// reader of a segment stream, such as a host snapshot body, where segments
// lie back to back. At a clean end of the stream, before a segment's first
// byte, it returns io.EOF. A header declaring more than MaxSegmentBytes is
// refused before anything is sized from it, and the read buffer, sized on
// the declared length up to 64 KiB, grows only as the bytes arrive.
func DecodeSegment(r io.Reader) ([]*flowrec.Record, error) {
	var hdr [flowrec.SegmentHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err == io.EOF {
		return nil, io.EOF
	} else if err != nil {
		return nil, fmt.Errorf("store: decode segment: truncated header: %w", err)
	}
	total, err := flowrec.SegmentLen(hdr[:])
	if err == nil && total > MaxSegmentBytes {
		err = fmt.Errorf("header declares %d bytes, limit %d", total, MaxSegmentBytes)
	}
	if err != nil {
		return nil, fmt.Errorf("store: decode segment: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(min(total, 64<<10) + bytes.MinRead)
	buf.Write(hdr[:])
	if _, err := io.CopyN(&buf, r, int64(total-len(hdr))); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // only a cut before the header is a clean end
		}
		return nil, fmt.Errorf("store: decode segment: truncated: %w", err)
	}
	recs, err := flowrec.DecodeSegment(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("store: decode segment: %w", err)
	}
	return recs, nil
}
