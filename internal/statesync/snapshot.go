package statesync

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
)

// SegmentsContentType marks a host snapshot body: a sequence of
// length-prefixed frames (4-byte big-endian length, then that many bytes),
// each holding one self-contained segment (store.EncodeSegment form), one
// per non-empty store shard. The frame length lets a puller bound and read
// a whole segment before decoding any of it.
const SegmentsContentType = "application/x-switchpointer-segments"

// maxFrameBytes is the largest frame ReadSegments accepts: the length is the
// peer's word, and sizes a buffer before a byte of the frame is read.
const maxFrameBytes = 64 << 20

// HostSnapshotHandler serves GET /snapshot on a host agent: the agent's
// resident record set as a stream of self-contained segments, one per
// non-empty store shard. Optional ?lo=E&hi=E query parameters restrict the
// snapshot to records whose telemetry epochs overlap [lo,hi] (epoch-range
// addressing); without them the full store is streamed.
//
// Each shard's segment is encoded from clones taken under only that shard's
// read lock, and written to the wire with no locks held — so a peer pulling
// a large snapshot never stalls the agent's packet absorption or its other
// query traffic. The response is flushed after every segment, so the puller
// can start loading while later shards are still being encoded.
func HostSnapshotHandler(ag *hostagent.Agent) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rpc.AllowMethod(w, r, http.MethodGet) {
			return
		}
		epochs, err := epochWindow(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", SegmentsContentType)
		flusher, _ := w.(http.Flusher)
		var buf bytes.Buffer
		werr := ag.Store.SnapshotShards(epochs, func(recs []*flowrec.Record) error {
			buf.Reset()
			if err := store.EncodeSegment(&buf, recs); err != nil {
				return err
			}
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(buf.Len()))
			if _, err := w.Write(hdr[:]); err != nil {
				return err
			}
			if _, err := w.Write(buf.Bytes()); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
		if werr != nil {
			// Headers are already out; the truncated stream surfaces as a
			// decode error on the puller, which is the honest failure mode.
			return
		}
	})
}

// epochWindow parses the optional ?lo=&hi= epoch-range address of a
// snapshot request. Absent parameters select the full store.
func epochWindow(r *http.Request) (simtime.EpochRange, error) {
	q := r.URL.Query()
	lo, hi := q.Get("lo"), q.Get("hi")
	if lo == "" && hi == "" {
		return store.EveryEpoch, nil
	}
	if lo == "" || hi == "" {
		return simtime.EpochRange{}, errors.New("statesync: snapshot window needs both lo and hi")
	}
	l, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return simtime.EpochRange{}, fmt.Errorf("statesync: bad lo: %w", err)
	}
	h, err := strconv.ParseInt(hi, 10, 64)
	if err != nil {
		return simtime.EpochRange{}, fmt.Errorf("statesync: bad hi: %w", err)
	}
	return simtime.EpochRange{Lo: simtime.Epoch(l), Hi: simtime.Epoch(h)}, nil
}

// ReadSegments decodes a stream of length-prefixed segments (a host snapshot
// body) until EOF, handing each segment's record slice to fn. It returns how
// many segments and records were decoded. A stream truncated mid-frame, or a
// frame longer than maxFrameBytes, is an error, never a silent short read.
func ReadSegments(r io.Reader, fn func(recs []*flowrec.Record) error) (segments, records int, err error) {
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return segments, records, nil
			}
			return segments, records, fmt.Errorf("statesync: segment frame: %w", err)
		}
		size := binary.BigEndian.Uint32(hdr[:])
		if size > maxFrameBytes {
			return segments, records, fmt.Errorf("statesync: segment frame %d declares %d bytes, limit %d", segments, size, maxFrameBytes)
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(r, payload); err != nil {
			return segments, records, fmt.Errorf("statesync: truncated segment %d: %w", segments, err)
		}
		recs, err := store.DecodeSegmentBytes(payload)
		if err != nil {
			return segments, records, fmt.Errorf("statesync: segment frame %d: %w", segments, err)
		}
		segments++
		records += len(recs)
		if err := fn(recs); err != nil {
			return segments, records, err
		}
	}
}
