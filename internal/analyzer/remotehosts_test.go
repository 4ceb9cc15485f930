package analyzer_test

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
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

// TestBadHeadersAnswerFailsRound: a /headers-batch answer that arrives but
// fails the client's check — a segment that does not validate, or the wrong
// number of answers — fails RemoteHosts.HeadersRound with an error wrapping
// rpc.ErrBadAnswer that names the first such host in host order, whatever
// the worker count. A host that cannot be reached or answers 500 still
// answers empty.
func TestBadHeadersAnswerFailsRound(t *testing.T) {
	const notASegment = `{"answers":[{"segment":"bm90IGEgc2VnbWVudA=="}]}`
	bodies := []string{
		"",               // unreachable
		"",               // 500
		notASegment,      // a segment that does not validate
		`{"answers":[]}`, // 0 answers to 1 query
		notASegment,      // a later bad host
	}
	hosts := make([]netsim.IPv4, len(bodies))
	urls := make(map[netsim.IPv4]string, len(bodies))
	for i, body := range bodies {
		hosts[i] = netsim.IP(10, 0, 0, byte(i+1))
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if body == "" {
				http.Error(w, "down", http.StatusInternalServerError)
				return
			}
			io.WriteString(w, body) //nolint:errcheck
		}))
		urls[hosts[i]] = srv.URL
		if i == 0 {
			srv.Close()
		} else {
			defer srv.Close()
		}
	}
	client := rpc.NewPooledHTTPClient()
	defer client.CloseIdleConnections()
	queries := []hostagent.HeadersQuery{{Switch: 7, Epochs: simtime.EpochRange{Lo: 0, Hi: 2}}}

	for _, c := range []struct {
		from int // the first host of the round
		bad  int // the host the error must name
	}{{0, 2}, {3, 3}} {
		for _, workers := range []int{1, 4} {
			r := analyzer.NewRemoteHosts(urls, client)
			answers, dispatched, err := r.HeadersRound(t.Context(), workers, hosts[c.from:], queries)
			if !errors.Is(err, rpc.ErrBadAnswer) || !strings.Contains(err.Error(), hosts[c.bad].String()) {
				t.Fatalf("round from host %d, %d workers: err = %v, want a bad-answer error naming %v", c.from, workers, err, hosts[c.bad])
			}
			if dispatched != len(hosts)-c.from {
				t.Fatalf("round from host %d: dispatched %d of %d", c.from, dispatched, len(hosts)-c.from)
			}
			for i, ans := range answers {
				if ans != nil {
					t.Errorf("round from host %d: host %d answered %+v, want nothing", c.from, c.from+i, ans)
				}
			}
		}
	}

	answers, dispatched, err := analyzer.NewRemoteHosts(urls, client).HeadersRound(t.Context(), 2, hosts[:2], queries)
	if err != nil || dispatched != 2 || answers[0] != nil || answers[1] != nil {
		t.Fatalf("unreachable and failing hosts: answers %v, dispatched %d, err %v; want two empty answers and no error", answers, dispatched, err)
	}
}
