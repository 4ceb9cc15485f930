//go:build !race

package cluster

import (
	"context"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
)

// countingTransport counts the requests the analyzer sends its daemons.
type countingTransport struct {
	inner http.RoundTripper
	n     *atomic.Int64
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.inner.RoundTrip(req)
}

// wireDiagnosis serves s's played-out testbed on a loopback trio and
// measures one whole diagnosis of q through the operator's client: the
// requests the analyzer sends its daemons and the allocations the process
// makes, both per diagnosis. The wire report must equal the in-memory
// analyzer's over the same state.
func wireDiagnosis(t *testing.T, s *Scenario, q analyzer.Query) (requests, allocs float64) {
	t.Helper()
	ctx := context.Background()
	rep, err := s.Testbed.Analyzer.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want := wireJSON(t, WireFromReport(rep))
	env, err := Envelope(q)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLoopback(s.Testbed, AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	var sent atomic.Int64
	lb.httpClient.HTTP.Transport = countingTransport{inner: lb.httpClient.HTTP.Transport, n: &sent}

	const runs = 10
	var got *WireReport
	allocs = testing.AllocsPerRun(runs, func() {
		if got, err = lb.Client.Diagnose(ctx, env); err != nil {
			t.Fatal(err)
		}
	})
	if g := wireJSON(t, got); g != want {
		t.Fatalf("wire report differs from the in-memory one:\n got %s\nwant %s", g, want)
	}
	// AllocsPerRun makes one warm-up run before the measured ones.
	return float64(sent.Load()) / (runs + 1), allocs
}

// TestFanOutDiagnosisBudget is the in-tree gate on diag-fanout's shape: top-k
// (n = 96, k = 100) over the loopback trio is one pointer pull and 96 /topk
// calls per diagnosis, and its allocations stay within the measured 12 610
// plus half an allocation per request: one more allocation per host request
// (96 more a diagnosis) fails it, where a 10 % margin would hide 13 of them.
func TestFanOutDiagnosisBudget(t *testing.T) {
	const wantRequests, budget = 97, 12_660
	s, err := BuildScenarioOpt("topk", 0, 96, scenario.Options{ClockSeed: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Testbed.Close()
	q, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	requests, allocs := wireDiagnosis(t, s, q)
	t.Logf("top-k n=96 over the trio: %v requests, %.0f allocations per diagnosis (budget %d)", requests, allocs, budget)
	if requests != wantRequests {
		t.Errorf("top-k n=96 over the trio: %v requests per diagnosis, want %d", requests, wantRequests)
	}
	if allocs > budget {
		t.Errorf("top-k n=96 over the trio: %.0f allocations per diagnosis, want <= %d", allocs, budget)
	}
}

// heapAlloc is the live heap after two collections.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// preload Puts perHost generated records into every host's store: flows
// into the host from its peers along their topology paths, seen at epochs
// far after the alert's windows, so the stores hold far more than any answer
// while the diagnosis stays what it was.
func preload(t *testing.T, s *Scenario, alert hostagent.Alert, perHost int) {
	t.Helper()
	all := alert.Tuples[0].Epochs
	for _, tup := range alert.Tuples {
		all = all.Union(tup.Epochs)
	}
	later := all.Hi + 1000
	hosts := s.Testbed.Topo.Hosts()
	for hi, h := range hosts {
		st := s.Testbed.HostAgents[h.IP()].Store
		for i := range perHost {
			flow := netsim.FlowKey{Src: hosts[(hi+1+i%(len(hosts)-1))%len(hosts)].IP(), Dst: h.IP(),
				SrcPort: uint16(1024 + i), DstPort: 9000, Proto: netsim.ProtoUDP}
			path, err := s.Testbed.Topo.PathOf(flow)
			if err != nil {
				t.Fatal(err)
			}
			r := flowrec.New(flow)
			r.Path = path
			r.TagIdx = 0
			e := later + simtime.Epoch(i%5000)
			for range path {
				r.Epochs = append(r.Epochs, simtime.EpochRange{Lo: e, Hi: e + 1})
			}
			r.Bytes, r.Pkts = uint64(1500*(1+i%4000)), uint64(1+i%4000)
			r.EpochBytes[e] = r.Bytes
			r.FirstSeen = simtime.EpochStart(e, s.Testbed.Opt.Alpha)
			r.LastSeen = simtime.EpochStart(e+1, s.Testbed.Opt.Alpha)
			st.Put(r)
		}
	}
}

// TestHeavyDiagnosisBudget is the in-tree gate on diag-heavy's shape:
// priority contention (m = 8) over the loopback trio, with every host store
// holding preloadPerHost records Put outside the alert's windows. A
// diagnosis is 11 requests whatever the stores hold. Its allocations stay
// within the measured 1 664 plus half an allocation per request, so one more
// allocation per request fails it where a 10 % margin would hide 15 of them;
// it measured 1 884 when the client decoded every answer into records, and
// 1 736 when it read each /headers-batch body through json.Unmarshal. A
// preloaded record stays resident as its encoding: 120.7 B measured + 10 %,
// in line with the ≈ 116 B TestResidentBytesPerRecord reads for its
// shorter-path records. A record kept decoded as well costs ≈ 400 B more.
func TestHeavyDiagnosisBudget(t *testing.T) {
	const preloadPerHost, wantRequests, allocBudget, residentBudget = 4000, 11, 1_669, 133
	s, err := BuildScenarioOpt("priority", 8, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Testbed.Close()
	q, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	before := heapAlloc()
	preload(t, s, q.(analyzer.ContentionQuery).Alert, preloadPerHost)
	records := preloadPerHost * len(s.Testbed.HostAgents)
	resident := float64(heapAlloc()-before) / float64(records)
	requests, allocs := wireDiagnosis(t, s, q)
	t.Logf("priority m=8 over the trio, %d records preloaded: %v requests, %.0f allocations per diagnosis (budget %d), %.1f B resident per record (budget %d)",
		records, requests, allocs, allocBudget, resident, residentBudget)
	if requests != wantRequests {
		t.Errorf("priority m=8 over the trio: %v requests per diagnosis, want %d", requests, wantRequests)
	}
	if allocs > allocBudget {
		t.Errorf("priority m=8 over the trio: %.0f allocations per diagnosis, want <= %d", allocs, allocBudget)
	}
	if resident > residentBudget {
		t.Errorf("preloaded records: %.1f B resident per record, want <= %d", resident, residentBudget)
	}
}
