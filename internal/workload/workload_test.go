package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// quantile returns the smallest size s with CDF(s) ≥ q.
func quantile(d *SizeDist, q float64) int {
	for i, c := range d.cum {
		if q <= c {
			return d.points[i].Size
		}
	}
	return d.points[len(d.points)-1].Size
}

func TestPresetMeans(t *testing.T) {
	// §6.1 anchors: enterprise mean > 256 B (≈850 B per Benson et al.);
	// hadoop median ≈ 250 B (Roy et al.).
	ent := EnterpriseDC()
	if ent.Mean() < 700 || ent.Mean() > 1000 {
		t.Fatalf("enterprise mean = %.0f, want ≈850", ent.Mean())
	}
	had := HadoopDC()
	if med := quantile(had, 0.5); med != 250 {
		t.Fatalf("hadoop median = %d, want 250", med)
	}
	if MinimumEthernet().Mean() != 64 || FullMTU().Mean() != 1500 {
		t.Fatalf("degenerate presets wrong")
	}
	if len(Mixes()) != 4 {
		t.Fatalf("Mixes count wrong")
	}
}

func TestSampleMatchesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := EnterpriseDC()
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	got := sum / n
	if got < d.Mean()*0.98 || got > d.Mean()*1.02 {
		t.Fatalf("empirical mean %.1f vs analytic %.1f", got, d.Mean())
	}
}

func TestNewSizeDistValidation(t *testing.T) {
	if _, err := NewSizeDist("x", nil); err == nil {
		t.Fatalf("empty accepted")
	}
	if _, err := NewSizeDist("x", []SizePoint{{Size: -1, Weight: 1}}); err == nil {
		t.Fatalf("negative size accepted")
	}
	if _, err := NewSizeDist("x", []SizePoint{{Size: 100, Weight: 0}}); err == nil {
		t.Fatalf("zero weight accepted")
	}
	d, err := NewSizeDist("ok", []SizePoint{{Size: 100, Weight: 2}, {Size: 200, Weight: 2}})
	if err != nil || d.Mean() != 150 || d.Name() != "ok" {
		t.Fatalf("build failed: %v %v", d, err)
	}
}

func TestQuantileMonotone(t *testing.T) {
	d := HadoopDC()
	prev := 0
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		s := quantile(d, q)
		if s < prev {
			t.Fatalf("quantiles not monotone at %v", q)
		}
		prev = s
	}
}

func TestPropertySamplesWithinSupport(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := EnterpriseDC()
		for i := 0; i < 100; i++ {
			s := d.Sample(rng)
			if s < 64 || s > 1500 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
