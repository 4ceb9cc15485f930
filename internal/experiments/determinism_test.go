package experiments

import (
	"testing"

	"switchpointer/internal/analyzer"
)

// TestParallelFanOutDeterminism is the merge-determinism gate: the full
// Fig 8 and Fig 12 artifacts (tables and notes, byte for byte) must match
// their committed goldens at analyzer fan-out widths 1, 4 and 16. The
// per-host query rounds run on a worker pool, but answers are merged in
// sorted host order, so worker scheduling must never leak into results or
// cost accounting.
func TestParallelFanOutDeterminism(t *testing.T) {
	defer func() { analyzer.DefaultWorkers = 0 }()
	for _, workers := range []int{1, 4, 16} {
		analyzer.DefaultWorkers = workers
		for _, run := range []Runner{Fig8, Fig12} {
			res, err := run()
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if got := res.Render(); got != golden(t, res.ID) {
				t.Errorf("workers=%d: %s diverged from %s\n--- got ---\n%s", workers, res.ID, goldenPath(res.ID), got)
			}
		}
	}
}
