package statesync

import (
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

// SegmentsContentType marks a host snapshot body: self-contained flowrec
// segments back to back, one per non-empty store shard. Each segment's
// header declares its length, so a puller bounds and reads a whole segment
// before decoding any of it (store.DecodeSegment).
const SegmentsContentType = "application/x-switchpointer-segments"

// HostSnapshotHandler serves GET /snapshot on a host agent: the agent's
// resident record set as a stream of self-contained segments, one per
// non-empty store shard. Optional ?lo=E&hi=E query parameters restrict the
// snapshot to records whose telemetry epochs overlap [lo,hi] (epoch-range
// addressing); without them the full store is streamed.
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
		epochs, err := epochWindow(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", SegmentsContentType)
		flusher, _ := w.(http.Flusher)
		// A write error leaves the stream truncated; the puller sees that as
		// a decode error, which is the honest failure mode.
		_ = ag.Store.SnapshotShards(epochs, func(seg []byte) error {
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
