package experiments

import (
	"runtime"
	"testing"
)

// TestParallelFanOutDeterminism is the merge-determinism gate: the full
// Fig 8 and Fig 12 artifacts (tables and notes, byte for byte) must match
// their committed goldens at GOMAXPROCS 1, 4 and 16, which set the default
// width (rpc.DefaultFanOutWorkers) of both the analyzer's per-host query
// rounds and the directory's pointer pulls. Rounds run on a worker pool, but
// answers are merged in sorted host order, so worker scheduling must never
// leak into results or cost accounting.
func TestParallelFanOutDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		for _, run := range []Runner{Fig8, Fig12} {
			res, err := run()
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			if got := res.Render(); got != golden(t, res.ID) {
				t.Errorf("GOMAXPROCS=%d: %s diverged from %s\n--- got ---\n%s", procs, res.ID, goldenPath(res.ID), got)
			}
		}
	}
}
