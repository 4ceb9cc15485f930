package store

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/header"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// TestConcurrentQueriesDuringAbsorption is the -race gate for the sharded
// store: a writer absorbs packets (including reroutes, which drive the
// index/memo invalidation paths) while query goroutines hammer every read
// API concurrently. Run under `go test -race ./internal/store` (part of
// `make verify`); without -race it still checks liveness and that queries
// only ever observe fully-absorbed records. The store starts fresh and the
// writer holds back until every querier has made a pass over it, so each
// shard's first-write initialisation races readers that are already on its
// nil maps.
func TestConcurrentQueriesDuringAbsorption(t *testing.T) {
	st := New()
	const (
		flows    = 64
		packets  = 200
		queriers = 4
	)
	pathA := []netsim.NodeID{10, 11, 12}
	pathB := []netsim.NodeID{10, 13, 12} // reroute target
	epochs := []simtime.EpochRange{{Lo: 1, Hi: 2}, {Lo: 1, Hi: 2}, {Lo: 1, Hi: 2}}

	var wg, warm sync.WaitGroup
	warm.Add(queriers)
	stop := make(chan struct{})

	// Writer: the simulated host's absorption loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		warm.Wait()
		for pkt := 0; pkt < packets; pkt++ {
			for f := 0; f < flows; f++ {
				flow := netsim.FlowKey{
					Src: netsim.IPv4(f + 1), Dst: 99,
					SrcPort: uint16(f), DstPort: 2, Proto: netsim.ProtoTCP,
				}
				path := pathA
				if (pkt/10+f)%2 == 1 { // periodic reroute churn
					path = pathB
				}
				rec := st.Acquire(flow)
				rec.Absorb(&netsim.Packet{Flow: flow, Size: 100},
					header.Decoded{Path: path, Epochs: epochs, TagIdx: 0},
					simtime.Time(pkt))
				st.Release(rec)
			}
		}
	}()

	// Flusher: the periodic "flush to local storage" must snapshot safely
	// while absorption is running.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Flush(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Queriers: concurrent analyzer/HTTP-binding reads over every read API.
	// Each querier sends at most ONE error and then exits — the channel can
	// never fill, so a store regression reports its diagnostic instead of
	// blocking a send inside a shard-locked callback and deadlocking the
	// whole gate.
	errs := make(chan error, queriers)
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for pass := 0; ; pass++ {
				if pass == 1 {
					warm.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
				var fail error
				for _, sw := range []netsim.NodeID{10, 11, 12, 13} {
					prev := netsim.FlowKey{}
					first := true
					st.QueryBySwitch(sw, func(r *flowrec.Record) bool {
						if r.Pkts == 0 || r.Bytes != 100*r.Pkts {
							fail = fmt.Errorf("half-absorbed record observed: %v", r)
							return false
						}
						if !first && !flowLess(prev, r.Flow) {
							fail = fmt.Errorf("switch %d: order violated at %v", sw, r.Flow)
							return false
						}
						prev, first = r.Flow, false
						return true
					})
					if fail != nil {
						errs <- fail
						return
					}
				}
				st.View(netsim.FlowKey{Src: 1, Dst: 99, SrcPort: 0, DstPort: 2, Proto: netsim.ProtoTCP},
					func(r *flowrec.Record) { _ = r.Priority })
				_ = st.Len()
			}
		}(q)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Post-conditions: every flow fully absorbed and indexed exactly once
	// per traversed switch.
	if st.Len() != flows {
		t.Fatalf("Len = %d, want %d", st.Len(), flows)
	}
	seen := 0
	for _, sw := range []netsim.NodeID{11, 13} {
		seen += len(st.BySwitch(sw))
	}
	if seen != flows {
		t.Fatalf("switches 11+13 index %d flows, want %d", seen, flows)
	}
}

// TestBySwitchMergesShardsSorted pins the cross-shard merge contract: with
// enough flows to populate every shard, BySwitch returns one slice in
// global flow-key order, identical to a naive sort of the membership.
func TestBySwitchMergesShardsSorted(t *testing.T) {
	st := New()
	const n = 10 * numShards
	for i := n; i > 0; i-- { // reverse insertion order
		addRecord(st, netsim.IPv4(i), 7, []netsim.NodeID{42}, i)
	}
	got := st.BySwitch(42)
	if len(got) != n {
		t.Fatalf("BySwitch = %d records, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if !flowLess(got[i-1].Flow, got[i].Flow) {
			t.Fatalf("merge order violated at %d: %v !< %v", i, got[i-1].Flow, got[i].Flow)
		}
	}
	// Memoized: repeat call returns the cached merged slice.
	if again := st.BySwitch(42); &again[0] != &got[0] {
		t.Fatal("merged BySwitch not memoized")
	}
}

// TestAcquireReleaseZeroAlloc gates the absorption hot path: at steady
// state (flow known, path unchanged) an Acquire/Release cycle performs
// zero heap allocations.
func TestAcquireReleaseZeroAlloc(t *testing.T) {
	st := New()
	rec := addRecord(st, 1, 2, []netsim.NodeID{10, 11}, 100)
	allocs := testing.AllocsPerRun(1000, func() {
		r := st.Acquire(rec.Flow)
		st.Release(r)
	})
	if allocs != 0 {
		t.Fatalf("Acquire/Release steady state: %v allocs/op, want 0", allocs)
	}
}
