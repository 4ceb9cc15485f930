//go:build !race

package analyzer_test

import (
	"context"
	"testing"
)

// TestDiagnosisAllocBudget pins what one in-memory diagnosis of each kind
// allocates, traced, on its small scenario: the measured count plus 10 %.
// The clock keys servers by address and the trace recorder keeps a
// diagnosis's spans in one arena; a regression in either shows up here.
func TestDiagnosisAllocBudget(t *testing.T) {
	budget := map[string]float64{
		"contention":     73,  // 66 measured (126 when answers were decoded records)
		"red-lights":     73,  // 66 (88)
		"cascade":        213, // 193 (237)
		"load-imbalance": 50,  // 46
		"top-k":          39,  // 35
	}
	for _, c := range fiveKinds(t) {
		got := testing.AllocsPerRun(10, func() {
			if _, err := c.a.Run(context.Background(), c.val); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per diagnosis (budget %.0f)", c.name, got, budget[c.name])
		if got > budget[c.name] {
			t.Errorf("%s: %.0f allocations per diagnosis, budget %.0f", c.name, got, budget[c.name])
		}
	}
}
