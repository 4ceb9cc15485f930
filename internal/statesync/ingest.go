package statesync

import (
	"context"
	"fmt"
	"net/http"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/rpc"
	"switchpointer/internal/store"
	"switchpointer/internal/trace"
)

// IngestBatch is the live-feed wire form: a batch of full flow records as
// one flowrec segment (base64 in the JSON; the codec of the query answers,
// disk and /snapshot) emitted by the simulator or by another daemon. Each
// record wholesale-replaces the receiver's record for its flow under
// store.Put's recency guard (LastSeen, then Pkts): re-sending a record is
// idempotent, the freshest version wins regardless of arrival order, and a
// stale delivery — a snapshot segment racing the feed, a retried batch —
// can never clobber newer state. A segment that does not decode is the
// sender's fault (400), and nothing of it is applied.
type IngestBatch struct {
	Segment []byte `json:"segment"`
}

// IngestResponse acknowledges one ingest batch.
type IngestResponse struct {
	Accepted int    `json:"accepted"`
	State    string `json:"state"`
}

// IngestHandler serves POST /ingest on a host agent: the live feed a
// bootstrapped daemon switches to after (or while — ingest is safe
// concurrently with bootstrap and with query serving) absorbing a peer
// snapshot. rd, when non-nil, accumulates ingest accounting for /healthz.
func IngestHandler(ag *hostagent.Agent, rd *Readiness) http.Handler {
	return rpc.Endpoint(nil, "ingest", rpc.LimitRecords,
		func(_ context.Context, batch *IngestBatch) (IngestResponse, []trace.Attr, error) {
			recs, err := flowrec.DecodeSegment(batch.Segment)
			if err != nil {
				return IngestResponse{}, nil, rpc.BadRequest(fmt.Errorf("statesync: ingest batch: %w", err))
			}
			for _, rec := range recs {
				ag.Store.Put(rec)
			}
			state := StateLive
			if rd != nil {
				rd.AddIngest(len(recs))
				state = rd.State()
			}
			return IngestResponse{Accepted: len(recs), State: state.String()}, nil, nil
		})
}

// FeedStore streams a whole store to a peer's ingest endpoint — the
// catch-up feed a source daemon (or the simulator side of a test) uses to
// bring a bootstrapped replica up to date with records absorbed after the
// snapshot was taken. Each non-empty shard goes as one batch, its segment
// spliced from stored bytes under only that shard's read lock, so the
// source keeps absorbing and serving while it feeds. It returns how many
// batches were sent.
func FeedStore(ctx context.Context, client *http.Client, ingestURL string, st *store.RecordStore) (batches int, err error) {
	c := rpc.NewHTTPClient(client)
	err = st.SnapshotShards(store.EveryEpoch, func(seg []byte) error {
		if err := c.Call(ctx, ingestURL, IngestBatch{Segment: seg}, nil, rpc.LimitRequest); err != nil {
			return fmt.Errorf("statesync: feed: %w", err)
		}
		batches++
		return nil
	})
	return batches, err
}
