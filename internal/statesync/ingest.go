package statesync

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/rpc"
	"switchpointer/internal/store"
	"switchpointer/internal/trace"
)

// IngestBatch is the live-feed wire form: a batch of full wire-form flow
// records (the same JSON schema the query endpoints ship) emitted by the
// simulator or by another daemon. Each record wholesale-replaces the
// receiver's record for its flow under store.Put's recency guard
// (LastSeen, then Pkts): re-sending a record is idempotent, the freshest
// version wins regardless of arrival order, and a stale delivery — a
// snapshot segment racing the feed, a retried batch — can never clobber
// newer state.
type IngestBatch struct {
	Records []*flowrec.Record `json:"records"`
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
			for _, rec := range batch.Records {
				if rec == nil {
					return IngestResponse{}, nil, rpc.BadRequest(errors.New("statesync: nil record in ingest batch"))
				}
				ag.Store.Put(rec)
			}
			state := StateLive
			if rd != nil {
				rd.AddIngest(len(batch.Records))
				state = rd.State()
			}
			return IngestResponse{Accepted: len(batch.Records), State: state.String()}, nil, nil
		})
}

// Feed posts records to a host ingest endpoint in batches of batchSize
// (≤ 0 selects 256). It returns how many batches were sent. Records are
// shipped as-is; callers keeping the records afterwards should pass clones.
func Feed(ctx context.Context, client *http.Client, ingestURL string, recs []*flowrec.Record, batchSize int) (batches int, err error) {
	c := rpc.NewHTTPClient(client)
	if batchSize <= 0 {
		batchSize = 256
	}
	for len(recs) > 0 {
		n := min(batchSize, len(recs))
		if err := c.Call(ctx, ingestURL, IngestBatch{Records: recs[:n]}, nil, rpc.LimitRequest); err != nil {
			return batches, fmt.Errorf("statesync: feed: %w", err)
		}
		batches++
		recs = recs[n:]
	}
	return batches, nil
}

// FeedStore streams a whole store to a peer's ingest endpoint — the
// catch-up feed a source daemon (or the simulator side of a test) uses to
// bring a bootstrapped replica up to date with records absorbed after the
// snapshot was taken. Clones are taken shard by shard under read locks, so
// the source keeps absorbing and serving while it feeds.
func FeedStore(ctx context.Context, client *http.Client, ingestURL string, st *store.RecordStore, batchSize int) (batches int, err error) {
	err = st.SnapshotShards(store.EveryEpoch, func(recs []*flowrec.Record) error {
		n, err := Feed(ctx, client, ingestURL, recs, batchSize)
		batches += n
		return err
	})
	return batches, err
}
