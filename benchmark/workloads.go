package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/cluster"
	"switchpointer/internal/scenario"
)

// params is what a workload's set-up is built from. The seed is the only
// randomness: every scenario's ClockSeed derives from it and it seeds
// diag-heavy's record generator; the program under test receives only the
// generated inputs.
type params struct {
	seed int64
	// scratch is a directory inside the checkout for state a workload keeps
	// on disk (diag-heavy's segment logs).
	scratch string
	// quick shrinks diag-heavy's preload and the rungs' iteration counts:
	// the smoke test's setting, never the gated run's.
	quick bool
}

// options is the k-th clock assignment a run draws from its seed (k < 256).
// sim-replay and diag-inmem cycle their operations over a ring of them: how
// many allocations a replay or a contention diagnosis makes depends on where
// the switches' clock offsets put the epoch boundaries (±4 % across seeds),
// and a run that averages over a ring reports a mean that barely moves with
// the seed — which keeps the allocation bounds tight enough to mean something.
func (p params) options(k int) scenario.Options {
	return scenario.Options{ClockSeed: p.seed<<8 | int64(k)}
}

// instance is one workload, set up: the operation, its oracle check, and the
// instrumented twin the traced run measures.
type instance struct {
	op    opFunc
	check checkFunc
	close func()
	// traced assembles the same operation over the same state with a timing
	// wrapper at every public seam.
	traced func(t *tracer) (op opFunc, close func(), err error)
	// mark, when set, is called as the traced window begins, after the
	// traced warm-up: where a workload snapshots cumulative counters.
	mark func()
	// layers fills out with the workload's per-layer metrics: what t folded
	// during the traced window, then the rungs.
	layers func(t *tracer, out map[string]float64) error
}

type workloadDef struct {
	name  string
	why   string
	setup func(p params) (*instance, error)
}

// workloads, in the order the full run executes them. BENCHMARK.json repeats
// name and why.
var workloads = []workloadDef{
	{"sim-replay", "write path: build+simulate loadimbalance n=96 (538982 events, 102677 pkts) over a ring of 16 clock assignments; eventq, netsim, switchagent, hostagent absorb, store work; analyzer, rpc, cluster idle", setupSimReplay},
	{"diag-inmem", "the five analyzer procedures over in-memory backends: 8 sweeps of six scenario queries, one per clock assignment; no wire, so procedure and tracing cost show and service-plane changes leave it flat", setupDiagInmem},
	{"diag-fanout", "many small messages: top-k (n=96, k=100) over the loopback trio, 1 pointer pull + 96 tiny /topk calls; per-request rpc+cluster+net/http cost is >95% of the op", setupDiagFanout},
	{"diag-heavy", "few large messages over a working set >> the answer: priority m=8 over the trio, 18 stores x 20000 preloaded records (0.25% overlap) + 32x256-record on-disk segments per host, 3 overlapping", setupDiagHeavy},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sameReport checks got in the form the repo's equivalence contract compares
// — marshalled cluster.WireReport — against the bytes the in-memory analyzer
// produced for the same state at set-up.
func sameReport(got *cluster.WireReport, want []byte) error {
	raw, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, want) {
		return fmt.Errorf("report differs from the in-memory oracle (%d bytes, want %d)", len(raw), len(want))
	}
	return nil
}

// builtScenario is a named scenario played out to its horizon, with the
// query it answers and the oracle: the in-memory analyzer's report.
type builtScenario struct {
	name   string
	s      *cluster.Scenario
	query  analyzer.Query
	oracle []byte
}

// buildScenario builds slot's scenario of a ring of ring clock assignments.
// An assignment under which the workload raises no alert for its victim has
// no query to answer; the slot then takes the next assignment of its residue
// class, so no run is handed an input it cannot set up.
func buildScenario(ctx context.Context, name string, m, n int, p params, slot, ring int) (*builtScenario, error) {
	var err error
	for k := slot; k < 256; k += ring {
		var s *cluster.Scenario
		if s, err = cluster.BuildScenarioOpt(name, m, n, p.options(k)); err != nil {
			return nil, err
		}
		s.Run()
		b := &builtScenario{name: name, s: s}
		if b.query, err = s.Query(); err == nil {
			err = b.freezeOracle(ctx)
		}
		if err == nil {
			return b, nil
		}
		s.Testbed.Close()
	}
	return nil, err
}

// freezeOracle (re)computes the oracle from the testbed's current state.
func (b *builtScenario) freezeOracle(ctx context.Context) error {
	rep, err := b.s.Testbed.Analyzer.Run(ctx, b.query)
	if err != nil {
		return fmt.Errorf("%s: in-memory oracle: %w", b.name, err)
	}
	b.oracle, err = json.Marshal(cluster.WireFromReport(rep))
	return err
}
