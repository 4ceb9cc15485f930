package analyzer_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
)

// TestDistributeReportsLowestFailingSwitch pins Distribute's documented
// error order: with three of eight switches unreachable, the error names the
// lowest failing switch ID however the URL map iterates, and every live
// switch still receives the table. Twenty rounds give map order its chances
// to show.
func TestDistributeReportsLowestFailingSwitch(t *testing.T) {
	var installs atomic.Int32
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/mph" || r.Method != http.MethodPost {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		installs.Add(1)
	}))
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // its URL now refuses connections

	down := map[netsim.NodeID]bool{17: true, 42: true, 63: true}
	urls := make(map[netsim.NodeID]string)
	for _, sw := range []netsim.NodeID{3, 11, 17, 24, 30, 42, 57, 63} {
		urls[sw] = live.URL
		if down[sw] {
			urls[sw] = dead.URL
		}
	}
	ips := []netsim.IPv4{netsim.IP(10, 0, 0, 1), netsim.IP(10, 0, 0, 2), netsim.IP(10, 0, 1, 1)}
	client := rpc.NewPooledHTTPClient()
	defer client.CloseIdleConnections()

	const rounds = 20
	for round := 0; round < rounds; round++ {
		d, err := analyzer.NewRemoteDirectory(ips, urls, client)
		if err != nil {
			t.Fatal(err)
		}
		err = d.Distribute(t.Context())
		if err == nil || !strings.Contains(err.Error(), "distribute to 17:") {
			t.Fatalf("round %d: Distribute = %v, want the failure of switch 17, the lowest down", round, err)
		}
	}
	if got, want := installs.Load(), int32(rounds*(len(urls)-len(down))); got != want {
		t.Fatalf("live switches received %d installs over %d rounds, want %d", got, rounds, want)
	}
}
