package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"switchpointer/internal/scenario"
	"switchpointer/internal/store"
)

// TestSegmentCodecEquivalenceAllKinds: for the records every built-in
// scenario leaves in its host stores, a segment round trip returns
// deep-equal records that marshal to the same JSON bytes — which is why the
// bootstrap, compaction and cold-read equivalence gates stay byte-identical
// across the codec change — and encoding them twice gives the same bytes.
// (The shapes no scenario produces — TagIdx −1, an empty or nil EpochBytes,
// a single-switch path — are in flowrec's and store's codec tests.)
func TestSegmentCodecEquivalenceAllKinds(t *testing.T) {
	cases := []struct {
		scenario string
		m, n     int
	}{
		{"priority", 4, 0}, {"microburst", 4, 0}, {"redlights", 0, 0},
		{"cascade", 0, 0}, {"loadimbalance", 0, 8}, {"topk", 0, 8},
	}
	for _, tc := range cases {
		t.Run(tc.scenario, func(t *testing.T) {
			s, err := BuildScenarioOpt(tc.scenario, tc.m, tc.n, scenario.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Testbed.Close()
			if _, err := s.Query(); err != nil { // plays the scenario to its horizon
				t.Fatal(err)
			}
			total := 0
			for ip, ag := range s.Testbed.HostAgents {
				recs := ag.Store.All()
				if len(recs) == 0 {
					continue
				}
				var first, second bytes.Buffer
				if err := store.EncodeSegment(&first, recs); err != nil {
					t.Fatal(err)
				}
				if err := store.EncodeSegment(&second, recs); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Fatal("encoding the same records twice gave different bytes")
				}
				got, err := store.DecodeSegment(&first)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, recs) {
					t.Fatalf("round trip changed the records of host %v", ip)
				}
				want, _ := json.Marshal(recs)
				if have, _ := json.Marshal(got); !bytes.Equal(have, want) {
					t.Fatalf("round trip changed the JSON of host %v", ip)
				}
				total += len(recs)
			}
			if total == 0 {
				t.Fatal("the scenario left no records")
			}
		})
	}
}
