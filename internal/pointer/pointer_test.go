package pointer

import (
	"testing"

	"switchpointer/internal/simtime"
)

func mustNew(t *testing.T, cfg Config, onPush PushFunc) *Structure {
	t.Helper()
	s, err := New(cfg, onPush)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func cfg10x3(n int) Config {
	return Config{Alpha: 10 * simtime.Millisecond, K: 3, NumHosts: n}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Alpha: 0, K: 1, NumHosts: 1},
		{Alpha: simtime.Millisecond, K: 0, NumHosts: 1},
		{Alpha: simtime.Millisecond, K: 10, NumHosts: 1},
		{Alpha: simtime.Millisecond, K: 1, NumHosts: 0},
		{Alpha: simtime.Millisecond, K: 1, NumHosts: 1, Backend: Backend(99)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := cfg10x3(10).Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestAlphaScalar(t *testing.T) {
	if (Config{Alpha: 10 * simtime.Millisecond}).AlphaScalar() != 10 {
		t.Fatalf("10ms should give α=10")
	}
	if (Config{Alpha: 20 * simtime.Millisecond}).AlphaScalar() != 20 {
		t.Fatalf("20ms should give α=20")
	}
	if (Config{Alpha: 100 * simtime.Microsecond}).AlphaScalar() != 2 {
		t.Fatalf("sub-ms alpha should floor the scalar at 2")
	}
}

func TestGeometry(t *testing.T) {
	s := mustNew(t, cfg10x3(64), nil)
	if len(s.levels[0]) != 10 || len(s.levels[1]) != 10 || len(s.levels[2]) != 1 {
		t.Fatalf("ring sizes: %d %d %d", len(s.levels[0]), len(s.levels[1]), len(s.levels[2]))
	}
	if s.spanEpochs[0] != 1 || s.spanEpochs[1] != 10 || s.spanEpochs[2] != 100 {
		t.Fatalf("spans: %v", s.spanEpochs)
	}
}

func TestMemoryAccounting(t *testing.T) {
	// n=100K, α=10, k=3: paper quotes 3.45 MB total with the MPH; the
	// pointer sets alone are (10·2+1)·12.5KB = 262.5 KB... for n=1M:
	// (10·2+1)·125KB = 2.625 MB. Check against the closed form.
	s := mustNew(t, Config{Alpha: 10 * simtime.Millisecond, K: 3, NumHosts: 100000, Backend: BackendDense}, nil)
	sBits := 12504 * 8 // ceil(100000/64) words
	want := TheoreticalMemoryBits(10, 3, sBits) / 8
	if got := int64(s.MemoryBytes()); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

// TestBandwidthAccounting checks the dense structure's push bandwidth
// against the paper's closed form S·10³/α^k bps (Fig 10b). At n = 1M the
// bitmap fills its words exactly (10⁶ = 15 625·64), so S = n: 100 Mbps at
// α = 10, k = 1, and 10× less for k = 2.
func TestBandwidthAccounting(t *testing.T) {
	const n, alpha = 1_000_000, 10
	alphaK := 1.0
	for k := 1; k <= 2; k++ {
		alphaK *= alpha
		s := mustNew(t, Config{Alpha: alpha * simtime.Millisecond, K: k, NumHosts: n, Backend: BackendDense}, nil)
		if got, want := s.PushBandwidthBps(), n*1e3/alphaK; got != want {
			t.Fatalf("k=%d: PushBandwidthBps = %g, want S·10³/α^k = %g", k, got, want)
		}
	}
}

func TestRecyclingPeriod(t *testing.T) {
	s := mustNew(t, cfg10x3(8), nil)
	if got := s.RecyclingPeriod(1); got != 90*simtime.Millisecond {
		t.Fatalf("level 1 = %v, want 90ms", got)
	}
	if got := s.RecyclingPeriod(2); got != 900*simtime.Millisecond {
		t.Fatalf("level 2 = %v, want 900ms", got)
	}
	if s.RecyclingPeriod(3) != 0 || s.RecyclingPeriod(0) != 0 {
		t.Fatalf("top/invalid levels should report 0")
	}
}

func TestTouchBeforeAdvancePanics(t *testing.T) {
	s := mustNew(t, cfg10x3(8), nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	s.Touch(0)
}

func TestAdvanceBackwardsPanics(t *testing.T) {
	s := mustNew(t, cfg10x3(8), nil)
	s.Advance(5)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	s.Advance(4)
}

func TestTouchSetsAllLevels(t *testing.T) {
	s := mustNew(t, cfg10x3(64), nil)
	s.Advance(0)
	s.Touch(7)
	for h := 1; h <= 3; h++ {
		slots := s.SlotsAt(h, simtime.EpochRange{Lo: 0, Hi: 0})
		if len(slots) != 1 || !slots[0].Bits.Get(7) {
			t.Fatalf("level %d missing bit", h)
		}
	}
	if s.Touches() != 1 {
		t.Fatalf("Touches = %d", s.Touches())
	}
}

func TestLazyAllocation(t *testing.T) {
	for _, be := range []Backend{BackendAdaptive, BackendDense} {
		cfg := cfg10x3(100000)
		cfg.Backend = be
		s := mustNew(t, cfg, nil)
		s.Advance(0)
		if got := s.ResidentBytes(); got != 0 {
			t.Fatalf("%s: idle structure resident = %d, want 0", be, got)
		}
		s.Touch(42)
		// One touch allocates the current slot of each level, nothing else.
		if got := s.ResidentBytes(); got == 0 {
			t.Fatalf("%s: touched structure resident = 0", be)
		}
		if be == BackendAdaptive {
			if got := s.ResidentBytes(); got > 1024 {
				t.Fatalf("adaptive: one touch resident = %d, want ~KBs", got)
			}
		}
	}
}

func TestAdaptivePromotionMatchesDense(t *testing.T) {
	// Drive one slot far past the density threshold and check membership
	// against the dense oracle across the promotion boundary.
	cfgA := cfg10x3(512)
	cfgD := cfg10x3(512)
	cfgD.Backend = BackendDense
	a := mustNew(t, cfgA, nil)
	d := mustNew(t, cfgD, nil)
	a.Advance(0)
	d.Advance(0)
	for i := 0; i < 512; i += 2 {
		a.Touch(i)
		d.Touch(i)
	}
	ba, ra := a.Query(simtime.EpochRange{Lo: 0, Hi: 0})
	bd, rd := d.Query(simtime.EpochRange{Lo: 0, Hi: 0})
	if !ba.Equal(bd) || ra.Level != rd.Level || ra.Covered != rd.Covered {
		t.Fatalf("adaptive diverged from dense after promotion: %+v vs %+v", ra, rd)
	}
}

func TestRotationPerEpochLevel1(t *testing.T) {
	s := mustNew(t, cfg10x3(64), nil)
	s.Advance(0)
	s.Touch(1)
	s.Advance(1)
	s.Touch(2)

	// Epoch 0 and epoch 1 live in different level-1 slots.
	slots := s.SlotsAt(1, simtime.EpochRange{Lo: 0, Hi: 1})
	if len(slots) != 2 {
		t.Fatalf("level-1 slots = %d, want 2", len(slots))
	}
	if !slots[0].Bits.Get(1) || slots[0].Bits.Get(2) {
		t.Fatalf("epoch-0 slot contents wrong")
	}
	if !slots[1].Bits.Get(2) || slots[1].Bits.Get(1) {
		t.Fatalf("epoch-1 slot contents wrong")
	}
	if !slots[0].Sealed || slots[1].Sealed {
		t.Fatalf("sealing wrong: %v %v", slots[0].Sealed, slots[1].Sealed)
	}
	// Level 2's single current slot covers both epochs.
	l2 := s.SlotsAt(2, simtime.EpochRange{Lo: 0, Hi: 1})
	if len(l2) != 1 || !l2[0].Bits.Get(1) || !l2[0].Bits.Get(2) {
		t.Fatalf("level-2 aggregation wrong")
	}
}

func TestLevel1RecyclingLosesOldEpochs(t *testing.T) {
	s := mustNew(t, cfg10x3(64), nil)
	s.Advance(0)
	s.Touch(3)
	// Advance 10 epochs: the epoch-0 slot is recycled at epoch 10.
	s.Advance(10)
	slots := s.SlotsAt(1, simtime.EpochRange{Lo: 0, Hi: 0})
	if len(slots) != 0 {
		t.Fatalf("epoch-0 level-1 slot should be recycled, got %d slots", len(slots))
	}
	// But level 2 still covers epoch 0 (slot [0,9] sealed, in ring).
	l2 := s.SlotsAt(2, simtime.EpochRange{Lo: 0, Hi: 0})
	if len(l2) != 1 || !l2[0].Bits.Get(3) {
		t.Fatalf("level-2 should retain epoch 0")
	}
}

func TestQueryPrefersFinestLevel(t *testing.T) {
	s := mustNew(t, cfg10x3(64), nil)
	s.Advance(0)
	for e := simtime.Epoch(0); e < 8; e++ {
		s.Advance(e)
		s.Touch(int(e))
	}
	bits, res := s.Query(simtime.EpochRange{Lo: 5, Hi: 6})
	if res.Level != 1 || !res.Covered {
		t.Fatalf("res = %+v, want level 1 covered", res)
	}
	if !bits.Get(5) || !bits.Get(6) {
		t.Fatalf("query missing touched hosts")
	}
	// Level-1 union over [5,6] must not include epoch-7-only hosts.
	if bits.Get(7) {
		t.Fatalf("query leaked neighbour epoch at level 1")
	}
	if res.Slots != 2 {
		t.Fatalf("Slots = %d, want 2", res.Slots)
	}
}

func TestQueryFallsBackToCoarserLevel(t *testing.T) {
	s := mustNew(t, cfg10x3(64), nil)
	s.Advance(0)
	s.Touch(1)
	s.Advance(25) // epoch 0 long gone from level 1; level 2 slot [0,9] sealed and still live
	bits, res := s.Query(simtime.EpochRange{Lo: 0, Hi: 0})
	if res.Level != 2 || !res.Covered {
		t.Fatalf("res = %+v, want level 2 covered", res)
	}
	if !bits.Get(1) {
		t.Fatalf("coarse query lost host")
	}
}

func TestQueryUncoveredFallsToTop(t *testing.T) {
	s := mustNew(t, Config{Alpha: 10 * simtime.Millisecond, K: 2, NumHosts: 8}, nil)
	s.Advance(0)
	s.Touch(2)
	// Level 2 (top) covers [0,9] only while current; advance far enough that
	// even the top slot recycled: top rotates at epoch 10.
	s.Advance(12)
	_, res := s.Query(simtime.EpochRange{Lo: 0, Hi: 0})
	if res.Covered {
		t.Fatalf("ancient epoch should be uncovered, res=%+v", res)
	}
}

func TestTopLevelPush(t *testing.T) {
	var pushed []Slot
	s := mustNew(t, Config{Alpha: 10 * simtime.Millisecond, K: 2, NumHosts: 64},
		func(slot Slot) { pushed = append(pushed, slot) })
	s.Advance(0)
	s.Touch(5)
	s.Advance(10) // top slot [0,9] seals
	if len(pushed) != 1 {
		t.Fatalf("pushes = %d, want 1", len(pushed))
	}
	p := pushed[0]
	if p.Epochs.Lo != 0 || p.Epochs.Hi != 9 || !p.Sealed || p.Level != 2 {
		t.Fatalf("pushed slot = %+v", p)
	}
	if !p.Bits.Get(5) {
		t.Fatalf("pushed slot lost host bit")
	}
	// Push snapshot is independent of the live structure.
	s.Touch(6)
	if p.Bits.Get(6) {
		t.Fatalf("pushed slot aliases live bits")
	}
	count, bytes := s.Pushes()
	if count != 1 || bytes == 0 {
		t.Fatalf("push accounting: %d %d", count, bytes)
	}
}

func TestPushCadence(t *testing.T) {
	var pushes int
	s := mustNew(t, cfg10x3(8), func(Slot) { pushes++ })
	s.Advance(0)
	s.Advance(350) // top covers 100 epochs; 3 full windows elapse
	if pushes != 3 {
		t.Fatalf("pushes = %d, want 3", pushes)
	}
}

func TestK1SingleLevel(t *testing.T) {
	var pushes int
	s := mustNew(t, Config{Alpha: 10 * simtime.Millisecond, K: 1, NumHosts: 16, Backend: BackendDense},
		func(Slot) { pushes++ })
	s.Advance(0)
	s.Touch(3)
	s.Advance(1)
	if pushes != 1 {
		t.Fatalf("k=1 should push every epoch, got %d", pushes)
	}
	if s.MemoryBytes() != ((16+63)/64)*8 {
		t.Fatalf("k=1 memory = %d", s.MemoryBytes())
	}
}

func TestQueryEmptyRange(t *testing.T) {
	s := mustNew(t, cfg10x3(8), nil)
	s.Advance(0)
	bits, res := s.Query(simtime.EpochRange{Lo: 5, Hi: 4})
	if bits.Any() || !res.Covered {
		t.Fatalf("empty range query wrong: %+v", res)
	}
}

func TestSlotsAtInvalidLevel(t *testing.T) {
	s := mustNew(t, cfg10x3(8), nil)
	if s.SlotsAt(0, simtime.EpochRange{}) != nil || s.SlotsAt(9, simtime.EpochRange{}) != nil {
		t.Fatalf("invalid levels should return nil")
	}
}

func TestAdvanceStartMidStream(t *testing.T) {
	// Structures may boot at a nonzero epoch (switch restarted mid-day).
	s := mustNew(t, cfg10x3(64), nil)
	s.Advance(1234)
	s.Touch(1)
	slots := s.SlotsAt(1, simtime.EpochRange{Lo: 1234, Hi: 1234})
	if len(slots) != 1 || !slots[0].Bits.Get(1) {
		t.Fatalf("mid-stream start broken")
	}
	// Windows are aligned to absolute epoch numbers.
	l2 := s.SlotsAt(2, simtime.EpochRange{Lo: 1234, Hi: 1234})
	if len(l2) != 1 || l2[0].Epochs.Lo != 1230 || l2[0].Epochs.Hi != 1239 {
		t.Fatalf("level-2 window = %v", l2[0].Epochs)
	}
}

func TestTheoreticalFormulas(t *testing.T) {
	// Fig 10(a) anchor: n=1M, α=10, k=3 → α(k−1)S+S = 21·1Mbit ≈ 2.625 MB
	// of pointer sets (paper: 3.45 MB including the 700KB MPH + overheads).
	bits := TheoreticalMemoryBits(10, 3, 1000000)
	if bits != 21_000_000 {
		t.Fatalf("TheoreticalMemoryBits = %d", bits)
	}
}

func TestHierarchicalRedundancy(t *testing.T) {
	// The defining redundancy property (§4.1.1): the level-(h+1) slot for a
	// window is the union of the level-h slots within that window.
	s := mustNew(t, cfg10x3(128), nil)
	s.Advance(0)
	for e := simtime.Epoch(0); e < 10; e++ {
		s.Advance(e)
		s.Touch(int(e) * 3)
	}
	l2 := s.SlotsAt(2, simtime.EpochRange{Lo: 0, Hi: 9})
	if len(l2) != 1 {
		t.Fatalf("level-2 slots = %d", len(l2))
	}
	union, res := s.Query(simtime.EpochRange{Lo: 0, Hi: 9})
	if res.Level != 1 || !res.Covered {
		t.Fatalf("level-1 should cover [0,9]: %+v", res)
	}
	if !union.Equal(l2[0].Bits) {
		t.Fatalf("level-2 slot != union of level-1 slots")
	}
}
