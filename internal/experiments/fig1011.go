package experiments

import (
	"fmt"
	"sync"

	"switchpointer/internal/mph"
	"switchpointer/internal/pointer"
	"switchpointer/internal/simtime"
)

// fig10Grid is the paper's (n, α) legend for Figure 10.
var fig10Grid = []struct {
	n     int
	alpha int // ms
}{
	{1_000_000, 20},
	{1_000_000, 10},
	{100_000, 20},
	{100_000, 10},
}

// mphSizeCache memoizes the expensive MPH builds (1 M keys).
var (
	mphSizeMu    sync.Mutex
	mphSizeCache = map[int]int{}
)

// measuredMPHSize builds (once) a minimal perfect hash over n sequential
// host addresses and returns its serialized size in bytes.
func measuredMPHSize(n int) (int, error) {
	mphSizeMu.Lock()
	defer mphSizeMu.Unlock()
	if sz, ok := mphSizeCache[n]; ok {
		return sz, nil
	}
	keys := make([]uint32, n)
	base := uint32(10 << 24)
	for i := range keys {
		keys[i] = base + uint32(i)
	}
	t, err := mph.Build(keys)
	if err != nil {
		return 0, err
	}
	mphSizeCache[n] = t.SizeBytes()
	return t.SizeBytes(), nil
}

// Fig10a regenerates Figure 10(a): switch memory vs number of levels k.
func Fig10a() (*Result, error) {
	r := &Result{ID: "fig10a", Title: "switch memory overhead vs k (Fig 10a)"}
	tab := Table{
		Title: "memory (MB): measured hierarchical structure + measured MPH",
		Cols:  []string{"k", "n=1M α=20", "n=1M α=10", "n=100K α=20", "n=100K α=10"},
	}
	for k := 1; k <= 5; k++ {
		row := []string{fmt.Sprintf("%d", k)}
		for _, g := range fig10Grid {
			// The paper's Fig 10 curves are the dense layout's provisioned
			// memory; pin the dense backend so the frozen metrics track it
			// (adaptive's memory has its own ablation).
			s, err := pointer.New(pointer.Config{
				Alpha:    simtime.Time(g.alpha) * simtime.Millisecond,
				K:        k,
				NumHosts: g.n,
				Backend:  pointer.BackendDense,
			}, nil)
			if err != nil {
				return nil, err
			}
			mphSz, err := measuredMPHSize(g.n)
			if err != nil {
				return nil, err
			}
			total := float64(s.MemoryBytes()+mphSz) / (1 << 20)
			row = append(row, f(total))
		}
		tab.Rows = append(tab.Rows, row)
	}
	r.AddTable(tab)

	// Cross-check against the paper's closed form α(k−1)S+S.
	check := Table{
		Title: "closed-form pointer-set bits, α(k−1)·S+S (MB, excl. MPH)",
		Cols:  []string{"k", "n=1M α=20", "n=1M α=10", "n=100K α=20", "n=100K α=10"},
	}
	for k := 1; k <= 5; k++ {
		row := []string{fmt.Sprintf("%d", k)}
		for _, g := range fig10Grid {
			bits := pointer.TheoreticalMemoryBits(g.alpha, k, g.n)
			row = append(row, f(float64(bits)/8/(1<<20)))
		}
		check.Rows = append(check.Rows, row)
	}
	r.AddTable(check)
	r.AddNote("paper anchors: n=1M α=10 k=3 → 3.45 MB; n=100K → 345 KB; memory grows ∝ α·k")
	return r, nil
}

// Fig10b regenerates Figure 10(b): data-plane→control-plane bandwidth vs k.
func Fig10b() (*Result, error) {
	r := &Result{ID: "fig10b", Title: "data→control plane bandwidth vs k (Fig 10b)"}
	tab := Table{
		Title: "push bandwidth (Mbps), measured structure",
		Cols:  []string{"k", "n=1M α=20", "n=1M α=10", "n=100K α=20", "n=100K α=10"},
	}
	for k := 1; k <= 5; k++ {
		row := []string{fmt.Sprintf("%d", k)}
		for _, g := range fig10Grid {
			s, err := pointer.New(pointer.Config{
				Alpha:    simtime.Time(g.alpha) * simtime.Millisecond,
				K:        k,
				NumHosts: g.n,
				Backend:  pointer.BackendDense,
			}, nil)
			if err != nil {
				return nil, err
			}
			row = append(row, f(s.PushBandwidthBps()/1e6))
		}
		tab.Rows = append(tab.Rows, row)
	}
	r.AddTable(tab)
	r.AddNote("paper anchors: n=1M α=10: 100 Mbps at k=1 → 10 Mbps at k=2 (exponential drop in k)")
	return r, nil
}

// Fig11 regenerates Figure 11: pointer recycling period vs α for k=3.
func Fig11() (*Result, error) {
	r := &Result{ID: "fig11", Title: "pointer recycling period (Fig 11)"}
	tab := Table{
		Title: "recycling period (ms), k=3",
		Cols:  []string{"α (ms)", "level 1", "level 2"},
	}
	for _, alpha := range []int{10, 20, 30} {
		s, err := pointer.New(pointer.Config{
			Alpha:    simtime.Time(alpha) * simtime.Millisecond,
			K:        3,
			NumHosts: 1024,
		}, nil)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", alpha),
			f(s.RecyclingPeriod(1).Milliseconds()),
			f(s.RecyclingPeriod(2).Milliseconds()),
		})
	}
	r.AddTable(tab)
	r.AddNote("paper anchors (α=10): 90 ms at level 1, 900 ms at level 2; grows exponentially with level")
	r.AddNote("the paper prints the formula as α(α^h−1) but quotes values matching (α−1)·α^h, which the slot-ring geometry also gives; we implement the latter")
	return r, nil
}

// Sec61Memory regenerates the §6.1 memory prose: measured MPH sizes and
// minimum pointer footprints.
func Sec61Memory() (*Result, error) {
	r := &Result{ID: "sec6.1", Title: "switch memory constants (§6.1)"}
	tab := Table{
		Title: "per-switch constants",
		Cols:  []string{"n", "MPH (KB)", "one pointer set (KB)", "minimum total (KB)"},
	}
	for _, n := range []int{100_000, 1_000_000} {
		mphSz, err := measuredMPHSize(n)
		if err != nil {
			return nil, err
		}
		setKB := float64((n+63)/64*8) / 1024
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", n),
			f(float64(mphSz) / 1024),
			f(setKB),
			f(float64(mphSz)/1024 + setKB),
		})
	}
	r.AddTable(tab)
	r.AddNote("paper (FCH): 70 KB / 700 KB MPH, 12.5 KB / 125 KB pointer, 82.5 KB / 825 KB total")
	r.AddNote("our BDZ construction trades ≈2× MPH size for orders-of-magnitude faster builds: compare the MPH column with the paper line above")
	return r, nil
}
