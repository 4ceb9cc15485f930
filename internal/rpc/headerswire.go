package rpc

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
)

// decodeWire reads a /headers-batch body; Call uses it in place of
// json.Unmarshal. It is unexported and not an UnmarshalJSON, so
// encoding/json and every other reader of the type still see plain JSON,
// and json.Unmarshal's validity pass over the whole body is not run first.
// The body a host writes — the bytes json.Encoder.Encode makes of a
// HeadersBatchResponse — is read in one pass over its structure and one
// base64 decode per segment (decodeCanonical). Anything else — other
// whitespace, key order or keys, escapes, null, a count that is signed,
// zero, padded or past int, bad base64, trailing bytes — goes to
// json.Unmarshal on the whole body from a zeroed value, so what is
// accepted, and what it decodes to, is encoding/json's.
func (br *HeadersBatchResponse) decodeWire(body []byte) error {
	if canon, ok := decodeCanonical(body); ok {
		*br = canon
		return nil
	}
	*br = HeadersBatchResponse{}
	return json.Unmarshal(body, br)
}

// decodeCanonical decodes a canonical /headers-batch body, or reports false.
// The first pass counts the answers and their segments' decoded bytes; the
// second decodes every segment into one slab of its own — no segment aliases
// body, which is Call's pooled buffer — and fills one Answers slice.
func decodeCanonical(body []byte) (HeadersBatchResponse, bool) {
	n, size, ok := scanCanonical(body, nil, nil)
	if !ok {
		return HeadersBatchResponse{}, false
	}
	answers := make([]HeadersResponse, n)
	if _, _, ok := scanCanonical(body, answers, make([]byte, size)); !ok {
		return HeadersBatchResponse{}, false
	}
	return HeadersBatchResponse{Answers: answers}, true
}

// countKeys are HeadersResponse's counts as encoding/json writes them after
// the segment: in field order, each only when non-zero.
var countKeys = [...]string{`,"cold_segments":`, `,"cold_records":`, `,"cold_returned":`, `,"cold_skipped_by_index":`, `,"tiered_segments":`}

// scanCanonical walks body as a canonical /headers-batch answer. With answers
// nil it only measures: n answers whose segments decode to at most size
// bytes. Otherwise it fills answers, which the measuring pass sized, and
// decodes their segments into slab one after another.
func scanCanonical(body []byte, answers []HeadersResponse, slab []byte) (n, size int, ok bool) {
	s := wireScan{b: body}
	if !s.lit(`{"answers":[`) {
		return 0, 0, false
	}
	for !s.lit(`]}`) {
		if n > 0 && !s.lit(`,`) || !s.lit(`{"segment":"`) {
			return 0, 0, false
		}
		str, ok := s.base64()
		if !ok {
			return 0, 0, false
		}
		var counts [len(countKeys)]int
		for k := 0; !s.lit(`}`); k++ {
			for k < len(countKeys) && !s.lit(countKeys[k]) {
				k++
			}
			if k == len(countKeys) {
				return 0, 0, false
			}
			if counts[k], ok = s.count(); !ok {
				return 0, 0, false
			}
		}
		if answers != nil {
			m, err := base64.StdEncoding.Decode(slab[size:], str)
			if err != nil {
				return 0, 0, false
			}
			answers[n] = HeadersResponse{
				Segment:            slab[size : size+m : size+m],
				ColdSegments:       counts[0],
				ColdRecords:        counts[1],
				ColdReturned:       counts[2],
				ColdSkippedByIndex: counts[3],
				TieredSegments:     counts[4],
			}
			size += m
		} else {
			size += base64.StdEncoding.DecodedLen(len(str))
		}
		n++
	}
	s.lit("\n")
	return n, size, len(s.b) == 0
}

// wireScan is scanCanonical's read position.
type wireScan struct{ b []byte }

// lit consumes p when the body continues with it.
func (s *wireScan) lit(p string) bool {
	if len(s.b) < len(p) || string(s.b[:len(p)]) != p {
		return false
	}
	s.b = s.b[len(p):]
	return true
}

// base64 consumes a string's contents and its closing quote. It leaves the
// contents to base64.StdEncoding.Decode, which fails on every byte outside
// the standard alphabet and its padding — so on any escape, any byte a JSON
// string cannot hold raw, and any quote an escape would have kept in the
// string — except CR and LF, which it skips and a JSON string cannot hold
// raw: those are refused here.
func (s *wireScan) base64() ([]byte, bool) {
	end := bytes.IndexByte(s.b, '"')
	if end < 0 {
		return nil, false
	}
	str := s.b[:end]
	if bytes.IndexByte(str, '\n') >= 0 || bytes.IndexByte(str, '\r') >= 0 {
		return nil, false
	}
	s.b = s.b[end+1:]
	return str, true
}

// count consumes a positive decimal int with no leading zero, the only form
// encoding/json writes a non-zero count in.
func (s *wireScan) count() (int, bool) {
	v, i := 0, 0
	for ; i < len(s.b) && '0' <= s.b[i] && s.b[i] <= '9'; i++ {
		d := int(s.b[i] - '0')
		if i == 0 && d == 0 || v > (math.MaxInt-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if i == 0 {
		return 0, false
	}
	s.b = s.b[i:]
	return v, true
}
