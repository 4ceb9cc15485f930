package cluster

import (
	"fmt"
	"sort"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
)

// Scenario couples a deterministic testbed with the analyzer query its
// workload is built to answer. It is the shared fixture behind the spd
// daemons (every daemon of a cluster rebuilds identical state from the
// scenario name — the simulation is deterministic, so host, switch, and
// analyzer processes agree byte-for-byte on all agent state) and behind
// spctl --remote (which derives the query locally and submits it over the
// wire).
type Scenario struct {
	// Name is the scenario identifier (see BuildScenarioOpt).
	Name string
	// Testbed is the fully wired deployment; run to Horizon before serving
	// or querying.
	Testbed *scenario.Testbed
	// Horizon is the virtual time the workload needs to play out.
	Horizon simtime.Time
	// SwitchName names the subject switch of the switch-driven scenarios
	// (loadimbalance, topk); empty otherwise.
	SwitchName string

	victim  netsim.FlowKey
	suspect netsim.NodeID
	topkK   int
	kind    string
	ran     bool
}

// ScenarioNames lists the supported scenario identifiers.
func ScenarioNames() []string {
	return []string{"priority", "microburst", "redlights", "cascade", "loadimbalance", "topk"}
}

// BuildScenarioOpt assembles a named scenario. m parameterizes burst width
// for priority/microburst (≤0 selects 8); n parameterizes server count for
// loadimbalance/topk (≤0 selects 16). opt is threaded into the named
// scenario's testbed (its own workload knobs still win); the zero value is
// the default deployment. The same (name, m, n, opt) always yields the same
// testbed state at the horizon. Exact pointer backends (adaptive, dense)
// reproduce identical diagnosis reports; the bloom backend reproduces
// identical culprit sets with the extra false-positive fan-out charged on
// the clock.
func BuildScenarioOpt(name string, m, n int, opt scenario.Options) (*Scenario, error) {
	if m <= 0 {
		m = 8
	}
	if n <= 0 {
		n = 16
	}
	switch name {
	case "priority", "microburst":
		s, err := scenario.NewTooMuchTraffic(scenario.TooMuchTrafficConfig{M: m, Microburst: name == "microburst", Opt: opt})
		if err != nil {
			return nil, err
		}
		return &Scenario{Name: name, Testbed: s.Testbed, Horizon: 110 * simtime.Millisecond,
			victim: s.Victim, kind: "contention"}, nil
	case "redlights":
		s, err := scenario.NewRedLights(opt)
		if err != nil {
			return nil, err
		}
		return &Scenario{Name: name, Testbed: s.Testbed, Horizon: 30 * simtime.Millisecond,
			victim: s.Victim, kind: "red-lights"}, nil
	case "cascade":
		s, err := scenario.NewCascades(true, opt)
		if err != nil {
			return nil, err
		}
		return &Scenario{Name: name, Testbed: s.Testbed, Horizon: 60 * simtime.Millisecond,
			victim: s.FlowCE, kind: "cascade"}, nil
	case "loadimbalance":
		s, err := scenario.NewLoadImbalance(n, opt)
		if err != nil {
			return nil, err
		}
		return &Scenario{Name: name, Testbed: s.Testbed,
			Horizon:    s.MaxFlowDuration() + 100*simtime.Millisecond,
			SwitchName: s.Suspect.NodeName(),
			suspect:    s.Suspect.NodeID(), kind: "load-imbalance"}, nil
	case "topk":
		s, err := scenario.NewTopKWorkload(n, 96, opt)
		if err != nil {
			return nil, err
		}
		return &Scenario{Name: name, Testbed: s.Testbed, Horizon: 50 * simtime.Millisecond,
			SwitchName: s.Queried.NodeName(),
			suspect:    s.Queried.NodeID(), topkK: 100, kind: "top-k"}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown scenario %q (want one of %v)", name, ScenarioNames())
	}
}

// Run plays the workload out to the horizon (idempotent) and returns the
// final virtual time. Serve agents or derive queries only after Run.
func (s *Scenario) Run() simtime.Time {
	end := s.Testbed.Run(s.Horizon)
	s.ran = true
	return end
}

// Alert returns the workload's trigger alert (alert-driven scenarios only).
func (s *Scenario) Alert() (hostagent.Alert, error) {
	if !s.ran {
		s.Run()
	}
	alert, ok := s.Testbed.AlertFor(s.victim)
	if !ok {
		return hostagent.Alert{}, fmt.Errorf("cluster: scenario %q raised no alert for %v", s.Name, s.victim)
	}
	return alert, nil
}

// Query returns the analyzer query the scenario is built to answer, derived
// from the played-out testbed exactly the way an operator session would
// derive it.
func (s *Scenario) Query() (analyzer.Query, error) {
	end := s.Run()
	switch s.kind {
	case "contention":
		alert, err := s.Alert()
		return analyzer.ContentionQuery{Alert: alert}, err
	case "red-lights":
		alert, err := s.Alert()
		return analyzer.RedLightsQuery{Alert: alert}, err
	case "cascade":
		alert, err := s.Alert()
		return analyzer.CascadeQuery{Alert: alert}, err
	case "load-imbalance":
		ag := s.Testbed.SwitchAgents[s.suspect]
		nowEpoch := ag.LocalEpochAt(end)
		return analyzer.ImbalanceQuery{
			Switch: s.suspect,
			Window: simtime.EpochRange{Lo: nowEpoch - 99, Hi: nowEpoch},
			At:     end,
		}, nil
	case "top-k":
		return analyzer.TopKQuery{
			Switch: s.suspect, K: s.topkK,
			Window: simtime.EpochRange{Lo: 0, Hi: 10},
			Mode:   analyzer.ModeSwitchPointer,
			At:     end,
		}, nil
	default:
		return nil, fmt.Errorf("cluster: scenario %q has no query", s.Name)
	}
}

// HostIPs returns the testbed's end-host IPs in topology order — the order
// every directory backend must use so MPH bitmap indices agree across
// processes.
func (s *Scenario) HostIPs() []netsim.IPv4 {
	hosts := s.Testbed.Topo.Hosts()
	ips := make([]netsim.IPv4, 0, len(hosts))
	for _, h := range hosts {
		ips = append(ips, h.IP())
	}
	return ips
}

// SwitchIDs returns the testbed's switch IDs, sorted.
func (s *Scenario) SwitchIDs() []netsim.NodeID {
	ids := make([]netsim.NodeID, 0, len(s.Testbed.SwitchAgents))
	for id := range s.Testbed.SwitchAgents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
