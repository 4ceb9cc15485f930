package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
)

// AblationColdTier measures the cold-tier query engine on a diagnosis whose
// entire epoch window has aged out of every host's hot store: how the
// manifest index, segment compaction, and age tiering change what the
// read-back decodes, what the report honestly omits, and what the extra
// virtual-time round charges.
func AblationColdTier() (*Result, error) {
	s, err := scenario.NewTooMuchTraffic(scenario.TooMuchTrafficConfig{M: 8})
	if err != nil {
		return nil, err
	}
	tb := s.Testbed
	defer tb.Close()
	tb.Run(110 * simtime.Millisecond)
	alert, ok := tb.AlertFor(s.Victim)
	if !ok {
		return nil, fmt.Errorf("ablation-coldtier: no alert for victim")
	}

	// Staged eviction: repeated retention sweeps at increasing virtual
	// times flush every host's records across many small epoch-overlapping
	// segments — the fragmented state a long-running daemon accumulates —
	// into one segment log per host under a directory removed on return.
	dir, err := os.MkdirTemp("", "ablation-coldtier-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	alpha := tb.Opt.Alpha
	var logs []*statesync.SegmentLog
	for ip, ag := range tb.HostAgents {
		seglog, err := statesync.NewSegmentLog(filepath.Join(dir, ip.String()))
		if err != nil {
			return nil, err
		}
		ag.Store.SetRetention(store.Retention{HotEpochs: 1, Alpha: alpha, Cold: seglog})
		for sweep := simtime.Time(simtime.Millisecond); sweep <= 60*simtime.Millisecond; sweep += simtime.Millisecond {
			if _, err := ag.Store.Maintain(sweep); err != nil {
				return nil, fmt.Errorf("ablation-coldtier: host %v: %w", ip, err)
			}
		}
		if _, err := ag.Store.Maintain(1 << 40); err != nil {
			return nil, fmt.Errorf("ablation-coldtier: host %v: %w", ip, err)
		}
		ag.SetColdReader(seglog)
		logs = append(logs, seglog)
	}
	segCount := func() int {
		n := 0
		for _, l := range logs {
			n += l.Len()
		}
		return n
	}
	run := func() (*analyzer.Report, error) {
		return tb.Analyzer.Run(context.Background(), analyzer.ContentionQuery{Alert: alert})
	}

	r := &Result{ID: "ablation-coldtier", Title: "ablation — cold-tier read-back: manifest index, compaction, tiering"}
	tab := Table{
		Title: "priority-contention diagnosis against an entirely evicted window (m=8)",
		Cols:  []string{"log state", "segments", "decoded", "skipped by index", "tiered", "culprits", "cold round (ms)"},
	}
	row := func(state string, rep *analyzer.Report) {
		tab.Rows = append(tab.Rows, []string{
			state,
			fmt.Sprintf("%d", segCount()),
			fmt.Sprintf("%d", rep.ColdSegments),
			fmt.Sprintf("%d", rep.ColdSkippedByIndex),
			fmt.Sprintf("%d", rep.TieredSegments),
			fmt.Sprintf("%d", len(rep.Culprits)),
			ms(float64(rep.Clock.PhaseTotal("cold-read-back").Milliseconds())),
		})
	}

	frag, err := run()
	if err != nil {
		return nil, fmt.Errorf("ablation-coldtier: fragmented run: %w", err)
	}
	row("fragmented", frag)

	for _, l := range logs {
		if _, err := l.Compact(context.Background(), statesync.CompactPolicy{MinRun: 2}); err != nil {
			return nil, fmt.Errorf("ablation-coldtier: compact: %w", err)
		}
	}
	comp, err := run()
	if err != nil {
		return nil, fmt.Errorf("ablation-coldtier: compacted run: %w", err)
	}
	row("compacted", comp)

	for _, l := range logs {
		if _, err := l.TierOut(context.Background(), 1<<40, statesync.TierPolicy{MaxAgeEpochs: 1, Alpha: alpha}); err != nil {
			return nil, fmt.Errorf("ablation-coldtier: tier: %w", err)
		}
	}
	tiered, err := run()
	if err != nil {
		return nil, fmt.Errorf("ablation-coldtier: tiered run: %w", err)
	}
	row("tiered out", tiered)

	r.AddTable(tab)
	r.AddNote("the manifest index skips segments whose switch set/flow bloom cannot match; compaction merges fragmented runs so the same answer decodes fewer segments at no extra charged cost")
	r.AddNote("tiering deletes aged payloads but keeps their manifests: the diagnosis reports TieredSegments instead of silently missing history")
	return r, nil
}
