package analyzer

import (
	"math/rand"
	"reflect"
	"testing"

	"switchpointer/internal/netsim"
)

// appendCulprit is the linear-scan dedup culpritIndex replaced, kept as the
// reference: c is appended unless its flow is already a culprit at its
// switch, and then the entry with more bytes stays.
func appendCulprit(list []Culprit, c Culprit) []Culprit {
	for i := range list {
		if list[i].Flow == c.Flow && list[i].Switch == c.Switch {
			if c.Bytes > list[i].Bytes {
				list[i] = c
			}
			return list
		}
	}
	return append(list, c)
}

// TestCulpritIndexMatchesLinearDedup: random culprits with many repeats of
// (flow, switch), and ties in bytes, give the same Culprits through the index as through the linear scan — also when, halfway, the
// culprits are sorted and refiled through a fresh index, which is how a
// cascade continues its first round.
func TestCulpritIndexMatchesLinearDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		want := &Report{}
		got := &Report{}
		ix := &culpritIndex{}
		n := rng.Intn(600)
		flows := 1 + rng.Intn(300)
		for i := 0; i < n; i++ {
			f := rng.Intn(flows)
			c := Culprit{
				Flow:   netsim.FlowKey{Src: netsim.IPv4(f % 17), Dst: 9, SrcPort: uint16(f), Proto: netsim.ProtoTCP},
				Switch: netsim.NodeID(rng.Intn(4)),
				Bytes:  uint64(rng.Intn(6)),
				Host:   netsim.IPv4(i),
			}
			want.Culprits = appendCulprit(want.Culprits, c)
			ix.add(got, c)
			if i == n/2 { // as a cascade continues its sorted first round
				sortCulprits(want.Culprits)
				sortCulprits(got.Culprits)
				first := got.Culprits
				got, ix = &Report{}, &culpritIndex{}
				for _, c := range first {
					ix.add(got, c)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (%d culprits over %d flows): index and linear dedup differ", round, n, flows)
		}
	}
}
