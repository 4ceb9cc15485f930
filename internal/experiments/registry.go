package experiments

import "fmt"

// Runner produces one experiment artifact.
type Runner func() (*Result, error)

// Entry couples an experiment ID with its runner and description.
type Entry struct {
	ID   string
	Desc string
	Run  Runner
}

// Registry lists every regenerable table/figure, in paper order.
func Registry() []Entry {
	return []Entry{
		{ID: "fig2a", Desc: "priority-based flow contention timelines", Run: Fig2a},
		{ID: "fig2b", Desc: "microburst-based flow contention timelines", Run: Fig2b},
		{ID: "fig3", Desc: "too many red lights: victim throughput at S1/S2", Run: Fig3},
		{ID: "fig4", Desc: "traffic cascades: flow timelines with/without cascade", Run: Fig4},
		{ID: "fig7", Desc: "debugging time breakdown for priority contention", Run: Fig7},
		{ID: "fig8", Desc: "load-imbalance diagnosis latency vs servers", Run: Fig8},
		{ID: "fig9", Desc: "datapath throughput vs packet size", Run: Fig9},
		{ID: "fig10a", Desc: "switch memory overhead vs k", Run: Fig10a},
		{ID: "fig10b", Desc: "data→control bandwidth vs k", Run: Fig10b},
		{ID: "fig11", Desc: "pointer recycling period vs α", Run: Fig11},
		{ID: "fig12", Desc: "top-100 query response time vs servers", Run: Fig12},
		{ID: "sec6.1", Desc: "switch memory constants", Run: Sec61Memory},
		{ID: "ablation-rpc", Desc: "connection pooling ablation", Run: AblationRPCPooling},
		{ID: "ablation-hash", Desc: "strawman hash table vs MPH", Run: AblationStrawmanHash},
		{ID: "ablation-pruning", Desc: "search-radius pruning ablation", Run: AblationPruning},
		{ID: "ablation-header", Desc: "commodity vs INT embedding", Run: AblationHeaderModes},
		{ID: "ablation-packetmix", Desc: "throughput under realistic packet mixes", Run: AblationPacketMix},
		{ID: "ablation-rulefloor", Desc: "commodity epoch-rule floor", Run: AblationEpochRuleFloor},
		{ID: "ablation-coldtier", Desc: "cold-tier read-back: index, compaction, tiering", Run: AblationColdTier},
		{ID: "ablation-pointer-memory", Desc: "pointer slot backends: adaptive/dense/bloom memory-accuracy tradeoff", Run: AblationPointerMemory},
		{ID: "diagnosis-throughput", Desc: "reports/sec under overlapping alerts at admission limits 1/4/16", Run: DiagnosisThroughput},
	}
}

// Find returns the registry entry with the given ID.
func Find(id string) (Entry, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
