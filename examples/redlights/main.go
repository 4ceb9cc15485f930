// Red lights: the §2.2 / §5.2 scenario built directly on the public API —
// a TCP flow crosses three switches and hits two sequential sub-millisecond
// high-priority bursts at different switches. No single switch sees anything
// anomalous; the accumulated damage is only visible end to end, and
// diagnosing it needs telemetry correlated ACROSS switches — exactly what
// the pointer directory enables.
package main

import (
	"context"
	"fmt"
	"log"

	sp "switchpointer"
)

func main() {
	// Chain S1–S2–S3, two hosts per switch: A,B | C,D | E,F.
	tb, err := sp.New(sp.Chain(2, 2, 2), sp.WithQueueDiscipline(sp.QueuePriority))
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	a, b := tb.Host("h1-1"), tb.Host("h1-2")
	c, d := tb.Host("h2-1"), tb.Host("h2-2")
	e, f := tb.Host("h3-1"), tb.Host("h3-2")

	// Victim: low-priority TCP A→F across all three switches.
	victim := sp.FlowKey{Src: a.IP(), Dst: f.IP(), SrcPort: 10000, DstPort: 80, Proto: 6}
	sp.StartTCP(tb.Net, a, f, sp.TCPConfig{Flow: victim, Priority: 1, Duration: 10 * sp.Millisecond})

	// Red light #1: B→D, 400µs at S1's egress, starting t=5ms.
	sp.StartUDP(tb.Net, b, sp.UDPConfig{
		Flow:     sp.FlowKey{Src: b.IP(), Dst: d.IP(), SrcPort: 20001, DstPort: 7001, Proto: 17},
		Priority: 7, RateBps: 1_000_000_000,
		Start: 5 * sp.Millisecond, Duration: 400 * sp.Microsecond,
	})
	// Red light #2: C→E, the next 400µs at S2's egress.
	sp.StartUDP(tb.Net, c, sp.UDPConfig{
		Flow:     sp.FlowKey{Src: c.IP(), Dst: e.IP(), SrcPort: 20002, DstPort: 7002, Proto: 17},
		Priority: 7, RateBps: 1_000_000_000,
		Start: 5*sp.Millisecond + 400*sp.Microsecond, Duration: 400 * sp.Microsecond,
	})

	alerts := tb.Subscribe(sp.AlertFilter{Flow: victim})
	tb.Run(30 * sp.Millisecond)

	var alert sp.Alert
	select {
	case alert = <-alerts:
	default:
		log.Fatal("destination F never triggered")
	}
	fmt.Printf("trigger at F: %v (%.2f → %.2f Gbps)\n", alert.DetectedAt, alert.PrevGbps, alert.CurGbps)

	rep, err := tb.Analyzer.Run(context.Background(), sp.RedLightsQuery{Alert: alert})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diagnosis:  %s\n", rep.Kind)
	fmt.Printf("conclusion: %s\n", rep.Conclusion)
	fmt.Println("per-switch culprits (the spatial correlation):")
	for _, c := range rep.Culprits {
		fmt.Printf("  switch %d: %v (priority %d)\n", c.Switch, c.Flow, c.Priority)
	}
	fmt.Printf("debugging time: %v (paper budget: ≈30 ms)\n", rep.Total())
}
