package analyzer_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
)

// TestRemoteHostsRoundConcurrent drives one RemoteHosts round over live test
// servers on the pooled client's fan-out: every host is dispatched, answers
// come back in host order, and a host that fails its request or has no URL
// answers zero without aborting the round.
func TestRemoteHostsRoundConcurrent(t *testing.T) {
	const (
		n      = 8
		down   = 3 // answers 500
		noURL  = 5 // missing from the URL map
		sw     = netsim.NodeID(7)
		k      = 2
		worker = 4
	)
	hosts := make([]netsim.IPv4, n)
	urls := make(map[netsim.IPv4]string, n)
	var hits [n]atomic.Int32
	for i := range hosts {
		i := i
		hosts[i] = netsim.IP(10, 0, 0, byte(i+1))
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			var req rpc.TopKRequest
			if r.URL.Path != "/topk" || json.NewDecoder(r.Body).Decode(&req) != nil || req.Switch != sw || req.K != k {
				http.Error(w, "bad request", http.StatusBadRequest)
				return
			}
			if i == down {
				http.Error(w, "down", http.StatusInternalServerError)
				return
			}
			json.NewEncoder(w).Encode([]hostagent.FlowBytes{{Bytes: uint64(i + 1)}}) //nolint:errcheck
		}))
		defer srv.Close()
		if i != noURL {
			urls[hosts[i]] = srv.URL
		}
	}
	client := rpc.NewPooledHTTPClient()
	defer client.CloseIdleConnections()

	answers, dispatched, err := analyzer.NewRemoteHosts(urls, client).TopKRound(t.Context(), worker, hosts, sw, k)
	if err != nil {
		t.Fatal(err)
	}
	if dispatched != len(hosts) || len(answers) != len(hosts) {
		t.Fatalf("dispatched %d with %d answers, want %d", dispatched, len(answers), len(hosts))
	}
	for i, ans := range answers {
		if i == down || i == noURL {
			if ans != nil {
				t.Errorf("host %d answered %+v, want zero", i, ans)
			}
			continue
		}
		if len(ans) != 1 || ans[0].Bytes != uint64(i+1) {
			t.Errorf("host %d answered %+v, want its own one flow", i, ans)
		}
	}
	for i := range hits {
		want := int32(1)
		if i == noURL {
			want = 0
		}
		if got := hits[i].Load(); got != want {
			t.Errorf("host %d contacted %d times, want %d", i, got, want)
		}
	}
}
