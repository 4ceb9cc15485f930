package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"switchpointer/internal/workload"
)

// AblationPacketMix extends Fig 9 with the paper's §6.1 acceptability
// argument, made quantitative: given the measured per-packet pipeline costs,
// what throughput does each pipeline sustain under *realistic datacenter
// packet mixes* (Benson enterprise ≈850 B mean; Roy hadoop ≈250 B median)
// rather than fixed sizes?
//
// For each sampled packet the pipeline takes max(cpu cost, wire time at
// 10GE); throughput is total bits over total time.
func AblationPacketMix() (*Result, error) {
	c, err := MeasurePerPacket()
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "ablation-packetmix", Title: "ablation — throughput under realistic packet mixes (§6.1 argument)"}
	tab := Table{
		Title: "sustained throughput (Gbps) at 10GE, measured pipeline costs",
		Cols:  []string{"packet mix", "mean size (B)", "OVS baseline", "SwitchPointer k=1", "SwitchPointer k=5", "SP k=5 vs line rate"},
	}
	for _, mix := range workload.Mixes() {
		gK5 := mixGbps(mix, c.K5)
		tab.Rows = append(tab.Rows, []string{mix.Name(), f(mix.Mean()), f(mixGbps(mix, c.Baseline)),
			f(mixGbps(mix, c.K1)), f(gK5), fmt.Sprintf("%.0f%%", 100*gK5/lineRateGbps)})
	}
	r.AddTable(tab)
	r.AddNote("the paper's §6.1 claim: since datacenter packet sizes average ≥256 B (850 B enterprise, 250 B hadoop median), the sub-256 B degradation is acceptable in practice")
	return r, nil
}

// mixGbps simulates a sampled packet stream through a pipeline with the
// given per-packet CPU cost, at 10GE line rate.
func mixGbps(mix *workload.SizeDist, nsPerPkt float64) float64 {
	rng := rand.New(rand.NewSource(12345))
	const samples = 200000
	var bits, ns float64
	for i := 0; i < samples; i++ {
		size := mix.Sample(rng)
		wire := float64(size*8) / lineRateGbps // ns on a 10G wire
		bits += float64(size * 8)
		ns += math.Max(wire, nsPerPkt)
	}
	return bits / ns
}
