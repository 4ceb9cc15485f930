// Package workload provides empirical datacenter packet-size mixes.
//
// The paper's Fig 9 argument leans on measured datacenter packet sizes —
// "an average packet size in data centers is in general larger than 256
// bytes (e.g., 850 bytes [Benson et al.], median value of 250 bytes for
// hadoop traffic [Roy et al.])" (§6.1) — so the throughput degradation below
// 256 B is acceptable in practice. This package encodes those mixes so the
// claim can be evaluated quantitatively (see the packet-mix experiment).
package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// SizePoint is one (size, weight) element of an empirical distribution.
type SizePoint struct {
	Size   int
	Weight float64
}

// SizeDist is a discrete empirical size distribution.
type SizeDist struct {
	name   string
	points []SizePoint
	cum    []float64
	mean   float64
}

// NewSizeDist builds a distribution from weighted points (weights need not
// be normalized).
func NewSizeDist(name string, points []SizePoint) (*SizeDist, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("workload: empty distribution %q", name)
	}
	d := &SizeDist{name: name, points: append([]SizePoint(nil), points...)}
	sort.Slice(d.points, func(i, j int) bool { return d.points[i].Size < d.points[j].Size })
	var total float64
	for _, p := range d.points {
		if p.Size <= 0 || p.Weight < 0 {
			return nil, fmt.Errorf("workload: bad point %+v in %q", p, name)
		}
		total += p.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("workload: zero total weight in %q", name)
	}
	acc := 0.0
	d.cum = make([]float64, len(d.points))
	for i, p := range d.points {
		acc += p.Weight / total
		d.cum[i] = acc
		d.mean += float64(p.Size) * p.Weight / total
	}
	d.cum[len(d.cum)-1] = 1.0
	return d, nil
}

// Name returns the distribution's label.
func (d *SizeDist) Name() string { return d.name }

// Mean returns the expected size.
func (d *SizeDist) Mean() float64 { return d.mean }

// Sample draws one size.
func (d *SizeDist) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range d.cum {
		if u <= c {
			return d.points[i].Size
		}
	}
	return d.points[len(d.points)-1].Size
}

// mustDist builds a preset (panics only on programmer error).
func mustDist(name string, points []SizePoint) *SizeDist {
	d, err := NewSizeDist(name, points)
	if err != nil {
		panic(err)
	}
	return d
}

// EnterpriseDC models the Benson et al. enterprise/datacenter packet mix:
// bimodal small-ACK / full-MTU with a mean near 850 B.
func EnterpriseDC() *SizeDist {
	return mustDist("enterprise-dc", []SizePoint{
		{Size: 64, Weight: 0.18},
		{Size: 256, Weight: 0.10},
		{Size: 576, Weight: 0.12},
		{Size: 1024, Weight: 0.18},
		{Size: 1500, Weight: 0.42},
	})
}

// HadoopDC models the Roy et al. (Facebook) hadoop traffic: median ≈250 B,
// ACK-heavy.
func HadoopDC() *SizeDist {
	return mustDist("hadoop-dc", []SizePoint{
		{Size: 64, Weight: 0.25},
		{Size: 128, Weight: 0.15},
		{Size: 250, Weight: 0.22},
		{Size: 576, Weight: 0.13},
		{Size: 1500, Weight: 0.25},
	})
}

// MinimumEthernet is the worst case: all 64 B packets.
func MinimumEthernet() *SizeDist {
	return mustDist("all-64B", []SizePoint{{Size: 64, Weight: 1}})
}

// FullMTU is the best case: all 1500 B packets.
func FullMTU() *SizeDist {
	return mustDist("all-1500B", []SizePoint{{Size: 1500, Weight: 1}})
}

// Mixes returns the standard evaluation set.
func Mixes() []*SizeDist {
	return []*SizeDist{MinimumEthernet(), HadoopDC(), EnterpriseDC(), FullMTU()}
}
