package experiments

import (
	"fmt"
	"math/rand"

	"switchpointer/internal/bitset"
	"switchpointer/internal/pointer"
	"switchpointer/internal/simtime"
)

// pointerAblationResult is one backend's measurements on the shared
// workload.
type pointerAblationResult struct {
	resident   int    // allocated slot-container bytes after the workload
	modeled    int    // provisioned memory claim (MemoryBytes)
	pushedB    uint64 // encoded bytes shipped by top-level pushes
	candidates int    // total hosts named across the probe queries
}

// runPointerAblation replays one deterministic sparse workload — activeHosts
// distinct hosts of an n-host universe touched over 40 epochs, the regime a
// datacenter switch's slots actually live in — against one backend, and
// checks every probe pull against the reference sets (nil reference = this
// IS the reference run).
func runPointerAblation(cfg pointer.Config, ref []*bitset.Set) (pointerAblationResult, []*bitset.Set, error) {
	var res pointerAblationResult
	s, err := pointer.New(cfg, nil)
	if err != nil {
		return res, nil, err
	}
	// Identical schedule per backend: the generator is re-seeded, so every
	// backend sees the same touches in the same order.
	rng := rand.New(rand.NewSource(8))
	active := make([]int, 4096)
	seen := make(map[int]bool, len(active))
	for i := range active {
		h := rng.Intn(cfg.NumHosts)
		for seen[h] {
			h = rng.Intn(cfg.NumHosts)
		}
		seen[h] = true
		active[i] = h
	}
	s.Advance(0)
	for e := simtime.Epoch(0); e < 40; e++ {
		s.Advance(e)
		for t := 0; t < 512; t++ {
			s.Touch(active[rng.Intn(len(active))])
		}
	}
	res.resident = s.ResidentBytes()
	res.modeled = s.MemoryBytes()

	// Probe pulls: per-epoch resolution, one coarse window, and the whole
	// retained history.
	probes := []simtime.EpochRange{
		{Lo: 36, Hi: 39},
		{Lo: 0, Hi: 15},
		{Lo: 0, Hi: 39},
	}
	outs := make([]*bitset.Set, len(probes))
	for i, r := range probes {
		bits, _ := s.Query(r)
		if ref != nil && !bits.Equal(ref[i]) {
			return res, nil, fmt.Errorf("experiments: %s backend diverged from dense on pull %v at n=%d (%d vs %d hosts)",
				cfg.Backend, r, cfg.NumHosts, bits.Count(), ref[i].Count())
		}
		outs[i] = bits
		res.candidates += bits.Count()
	}

	// Play out to two top-level seals (top slot spans α² = 256 epochs) so
	// the push accounting reflects the backend's actual encoded bytes.
	s.Advance(520)
	if pushes, _ := s.Pushes(); pushes != 2 {
		return res, nil, fmt.Errorf("experiments: expected 2 top-level pushes, got %d", pushes)
	}
	_, res.pushedB = s.Pushes()
	return res, outs, nil
}

// AblationPointerMemory regenerates the Fig 10-style memory/bandwidth
// tradeoff between the two pointer-slot backends at n = 100 K and 1 M — the
// quantified claim behind the adaptive default: the dense layout's answers
// at a fraction of its resident memory. The run itself enforces the gates:
// adaptive answers every probe pull byte-identically to dense, with ≥10×
// less resident memory at 1 M.
func AblationPointerMemory() (*Result, error) {
	r := &Result{ID: "ablation-pointer-memory", Title: "pointer slot backends: memory/bandwidth/accuracy (4096 active hosts, k=3, α=16)"}
	tab := Table{
		Title: "per-switch pointer structure after the sparse workload",
		Cols:  []string{"n", "backend", "resident B", "modeled B", "pushed B", "candidates"},
	}
	var ratio1M float64
	for _, n := range []int{100_000, 1_000_000} {
		var dense, adaptive pointerAblationResult
		var ref []*bitset.Set
		for _, be := range []pointer.Backend{pointer.BackendDense, pointer.BackendAdaptive} {
			res, outs, err := runPointerAblation(pointer.Config{Alpha: 16 * simtime.Millisecond, K: 3, NumHosts: n, Backend: be}, ref)
			if err != nil {
				return nil, err
			}
			if be == pointer.BackendDense {
				dense, ref = res, outs
			} else {
				adaptive = res
			}
			tab.Rows = append(tab.Rows, []string{
				fmt.Sprintf("%d", n), be.String(),
				fmt.Sprintf("%d", res.resident),
				fmt.Sprintf("%d", res.modeled),
				fmt.Sprintf("%d", res.pushedB),
				fmt.Sprintf("%d", res.candidates),
			})
		}
		if n == 1_000_000 {
			ratio1M = float64(dense.resident) / float64(adaptive.resident)
			if ratio1M < 10 {
				return nil, fmt.Errorf("experiments: adaptive resident reduction at n=1M is %.1f×, want ≥10×", ratio1M)
			}
		}
	}
	r.AddTable(tab)
	r.AddTable(Table{
		Title: "gates",
		Cols:  []string{"gate", "value"},
		Rows: [][]string{
			{"adaptive/dense resident ratio at n=1M (dense÷adaptive)", f(ratio1M)},
		},
	})
	r.AddNote("adaptive answers every pull byte-identically to dense (enforced above)")
	r.AddNote("pushed B is the encoded top-slot wire size: full width for dense, occupancy-proportional for adaptive")
	return r, nil
}
