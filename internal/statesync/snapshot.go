package statesync

import (
	"fmt"
	"io"
	"net/http"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/rpc"
	"switchpointer/internal/store"
)

// SegmentsContentType marks a host snapshot body: self-contained flowrec
// segments back to back, one per non-empty store shard. Each segment's
// header declares its length, so a puller bounds and reads a whole segment
// before decoding any of it (store.DecodeSegment).
const SegmentsContentType = "application/x-switchpointer-segments"

// HostSnapshotHandler serves GET /snapshot on a host agent: the agent's
// resident record set as a stream of self-contained segments, one per
// non-empty store shard.
//
// Each shard's segment is spliced from its records' stored bytes under only
// that shard's read lock, and written to the wire as it is with no locks
// held — so a peer pulling a large snapshot never stalls the agent's packet
// absorption or its other query traffic. The response is flushed after
// every segment, so the puller can start loading while later shards are
// still being read.
func HostSnapshotHandler(ag *hostagent.Agent) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rpc.AllowMethod(w, r, http.MethodGet) {
			return
		}
		w.Header().Set("Content-Type", SegmentsContentType)
		flusher, _ := w.(http.Flusher)
		// A write error leaves the stream truncated; the puller sees that as
		// a decode error, which is the honest failure mode.
		_ = ag.Store.SnapshotShards(func(seg []byte) error {
			if _, err := w.Write(seg); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
	})
}

// ReadSegments decodes a host snapshot body, one store.DecodeSegment per
// segment, until the stream ends, handing each segment's records to fn. It
// returns how many segments and records were decoded. A stream cut inside a
// segment, or a header declaring more than store.MaxSegmentBytes, is an
// error naming the segment, never a silent short read.
func ReadSegments(r io.Reader, fn func(recs []*flowrec.Record) error) (segments, records int, err error) {
	for {
		recs, err := store.DecodeSegment(r)
		if err == io.EOF {
			return segments, records, nil
		}
		if err != nil {
			return segments, records, fmt.Errorf("statesync: segment %d: %w", segments, err)
		}
		segments++
		records += len(recs)
		if err := fn(recs); err != nil {
			return segments, records, err
		}
	}
}
