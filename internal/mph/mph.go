// Package mph implements a minimal perfect hash function over 32-bit keys
// (IPv4 end-host addresses), replacing the CMPH/FCH library the paper uses
// (§4.1.2).
//
// The construction is the BDZ/MOS 3-hypergraph algorithm (Botelho, Pagh,
// Ziviani): each key maps to three vertices of a hypergraph with ~1.23·m
// vertices; if the graph is acyclic (peelable), a 2-bit value per vertex
// suffices to pick, for every key, a distinct vertex; a rank structure over
// the chosen vertices then yields indices in [0, m). The result is:
//
//   - exactly one table index per key, no collisions (perfect);
//   - indices form [0, m) with no gaps (minimal);
//   - O(1) lookup — a single seeded mix of the key followed by three
//     modular reductions and one rank probe, independent of the number of
//     levels in the pointer hierarchy (the paper's key requirement);
//   - a few bits of storage per key (BDZ ≈ 3.7 bits/key here; the paper's
//     FCH reaches 2.1 bits/key at much higher construction cost — the
//     constant factor difference is pinned, next to the paper's numbers, in
//     internal/experiments/testdata/sec6.1.golden.txt).
//
// Construction is randomized: if peeling fails the builder retries with a new
// seed. For load factors around 0.81 (γ = 1.23) failures are rare.
package mph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// Table is an immutable minimal perfect hash table mapping each key from the
// build set to a unique index in [0, Len()). Lookups of keys outside the
// build set return an arbitrary in-range index; callers that need membership
// must verify externally (SwitchPointer does not: the analyzer guarantees the
// key universe equals the current end-host set).
type Table struct {
	seed      uint64
	m         uint32 // number of keys
	partLen   uint32 // vertices per hypergraph part (3 parts)
	g         []byte // 2-bit values per vertex, packed 4 per byte
	chosen    []uint64
	rank      []uint32 // cumulative popcount per rank block of chosen
	buildIter int
}

const (
	gamma          = 1.23 // vertices per key
	maxBuildRetry  = 64
	rankBlockWords = 4 // rank sample every 256 bits
)

// ErrDuplicateKeys is returned by Build when the key set contains duplicates.
var ErrDuplicateKeys = errors.New("mph: duplicate keys in build set")

// ErrTooFewKeys is returned by Build for an empty key set.
var ErrTooFewKeys = errors.New("mph: empty key set")

// Build constructs a minimal perfect hash table for the given distinct keys.
// The input slice is not modified.
func Build(keys []uint32) (*Table, error) {
	return buildSeeded(keys, 0x9E3779B97F4A7C15)
}

func buildSeeded(keys []uint32, seed0 uint64) (*Table, error) {
	m := len(keys)
	if m == 0 {
		return nil, ErrTooFewKeys
	}
	if hasDuplicates(keys) {
		return nil, ErrDuplicateKeys
	}
	partLen := uint32(float64(m)*gamma/3.0) + 1
	if partLen < 2 {
		partLen = 2
	}
	nv := 3 * partLen

	type edge struct{ v [3]uint32 }
	edges := make([]edge, m)
	deg := make([]int32, nv)
	// adjacency: for peeling we keep, per vertex, the XOR of incident edge
	// ids and the degree; removing an edge updates both. When degree hits 1
	// the XOR holds the last incident edge id. This is the standard
	// linear-time peeling trick.
	xorEdge := make([]uint32, nv)

	seed := seed0
	for attempt := 0; attempt < maxBuildRetry; attempt++ {
		for i := range deg {
			deg[i] = 0
			xorEdge[i] = 0
		}
		for i, k := range keys {
			v0, v1, v2 := vertices(k, seed, partLen)
			edges[i] = edge{v: [3]uint32{v0, v1, v2}}
			for _, v := range edges[i].v {
				deg[v]++
				xorEdge[v] ^= uint32(i)
			}
		}

		// Peel: repeatedly remove vertices of degree 1.
		type peeled struct {
			edgeID uint32
			vertex uint32
		}
		order := make([]peeled, 0, m)
		stack := make([]uint32, 0, nv/4)
		for v := uint32(0); v < nv; v++ {
			if deg[v] == 1 {
				stack = append(stack, v)
			}
		}
		removed := make([]bool, m)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if deg[v] != 1 {
				continue
			}
			eid := xorEdge[v]
			if removed[eid] {
				continue
			}
			removed[eid] = true
			order = append(order, peeled{edgeID: eid, vertex: v})
			for _, u := range edges[eid].v {
				deg[u]--
				xorEdge[u] ^= eid
				if deg[u] == 1 {
					stack = append(stack, u)
				}
			}
		}
		if len(order) != m {
			// Cyclic hypergraph; try a different seed.
			seed = mix64(seed + 0x632BE59BD9B4E019)
			continue
		}

		// Assign: process edges in reverse peel order. The recorded vertex
		// of each edge is untouched by all earlier-processed edges, so it
		// can absorb whatever value makes the edge's g-sum select it.
		g := make([]byte, (nv+3)/4)
		visited := make([]bool, nv)
		chosen := make([]uint64, (nv+63)/64)
		for i := m - 1; i >= 0; i-- {
			p := order[i]
			e := edges[p.edgeID]
			var freeIdx int
			sum := 0
			for j, v := range e.v {
				if v == p.vertex && !visited[v] {
					freeIdx = j
					continue
				}
				visited[v] = true
				sum += int(getG(g, v))
			}
			val := byte(((freeIdx-sum)%3 + 3) % 3)
			setG(g, p.vertex, val)
			visited[p.vertex] = true
			chosen[p.vertex/64] |= 1 << (p.vertex % 64)
		}

		t := &Table{
			seed:      seed,
			m:         uint32(m),
			partLen:   partLen,
			g:         g,
			chosen:    chosen,
			buildIter: attempt + 1,
		}
		t.buildRank()
		return t, nil
	}
	return nil, fmt.Errorf("mph: build failed after %d seeds (m=%d)", maxBuildRetry, m)
}

func hasDuplicates(keys []uint32) bool {
	if len(keys) < 2 {
		return false
	}
	sorted := make([]uint32, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return true
		}
	}
	return false
}

func (t *Table) buildRank() {
	nBlocks := (len(t.chosen) + rankBlockWords - 1) / rankBlockWords
	t.rank = make([]uint32, nBlocks)
	var acc uint32
	for b := 0; b < nBlocks; b++ {
		t.rank[b] = acc
		for w := b * rankBlockWords; w < (b+1)*rankBlockWords && w < len(t.chosen); w++ {
			acc += uint32(bits.OnesCount64(t.chosen[w]))
		}
	}
}

func getG(g []byte, v uint32) byte { return (g[v/4] >> ((v % 4) * 2)) & 3 }

func setG(g []byte, v uint32, val byte) {
	shift := (v % 4) * 2
	g[v/4] = g[v/4]&^(3<<shift) | val<<shift
}

// mix64 is the SplitMix64 finalizer: a fast, high-quality 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// vertices derives the three hypergraph vertices for a key: one 64-bit mix,
// three chunks, each reduced into its own third of the vertex space. A single
// mix per packet is the "one hash operation" the paper's data plane needs.
func vertices(key uint32, seed uint64, partLen uint32) (uint32, uint32, uint32) {
	h := mix64(uint64(key) ^ seed)
	h2 := mix64(h ^ 0xD6E8FEB86659FD93)
	v0 := uint32(h % uint64(partLen))
	v1 := partLen + uint32((h>>32)%uint64(partLen))
	v2 := 2*partLen + uint32(h2%uint64(partLen))
	return v0, v1, v2
}

// Len returns the number of keys in the table (the size of the index range).
func (t *Table) Len() int { return int(t.m) }

// BuildIterations reports how many seeds were tried before a peelable
// hypergraph was found (1 means first try).
func (t *Table) BuildIterations() int { return t.buildIter }

// Lookup returns the index in [0, Len()) assigned to key. Keys not in the
// build set yield an arbitrary in-range value.
func (t *Table) Lookup(key uint32) int {
	v0, v1, v2 := vertices(key, t.seed, t.partLen)
	j := (getG(t.g, v0) + getG(t.g, v1) + getG(t.g, v2)) % 3
	v := v0
	switch j {
	case 1:
		v = v1
	case 2:
		v = v2
	}
	return t.rankOf(v)
}

// rankOf counts chosen vertices strictly before v; for a chosen vertex this
// is its minimal perfect index.
func (t *Table) rankOf(v uint32) int {
	block := int(v) / (rankBlockWords * 64)
	r := t.rank[block]
	wordEnd := int(v) / 64
	for w := block * rankBlockWords; w < wordEnd; w++ {
		r += uint32(bits.OnesCount64(t.chosen[w]))
	}
	r += uint32(bits.OnesCount64(t.chosen[wordEnd] & ((1 << (v % 64)) - 1)))
	return int(r)
}

// SizeBytes returns the serialized storage footprint of the function itself
// (g array + chosen bitmap + rank samples + header). This is the quantity the
// paper reports as ~70 KB for 100 K hosts and ~700 KB for 1 M hosts.
func (t *Table) SizeBytes() int {
	return 8 + 4 + 4 + len(t.g) + len(t.chosen)*8 + len(t.rank)*4
}

// BitsPerKey reports the storage cost per key of the hash function.
func (t *Table) BitsPerKey() float64 { return float64(t.SizeBytes()*8) / float64(t.m) }

// MarshalBinary serializes the table so the analyzer can distribute it to
// every switch (§4.3: the analyzer constructs the MPH whenever the end-host
// population changes and pushes it to the switches).
func (t *Table) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, t.SizeBytes()+16)
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], t.seed)
	binary.LittleEndian.PutUint32(hdr[8:], t.m)
	binary.LittleEndian.PutUint32(hdr[12:], t.partLen)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(t.g)))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(t.chosen)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, t.g...)
	for _, w := range t.chosen {
		var wb [8]byte
		binary.LittleEndian.PutUint64(wb[:], w)
		buf = append(buf, wb[:]...)
	}
	return buf, nil
}

// UnmarshalBinary restores a table serialized with MarshalBinary.
func (t *Table) UnmarshalBinary(data []byte) error {
	if len(data) < 24 {
		return fmt.Errorf("mph: truncated header")
	}
	t.seed = binary.LittleEndian.Uint64(data[0:])
	t.m = binary.LittleEndian.Uint32(data[8:])
	t.partLen = binary.LittleEndian.Uint32(data[12:])
	gLen := int(binary.LittleEndian.Uint32(data[16:]))
	cLen := int(binary.LittleEndian.Uint32(data[20:]))
	need := 24 + gLen + cLen*8
	if len(data) != need {
		return fmt.Errorf("mph: body size %d, want %d", len(data)-24, need-24)
	}
	t.g = make([]byte, gLen)
	copy(t.g, data[24:24+gLen])
	t.chosen = make([]uint64, cLen)
	for i := range t.chosen {
		t.chosen[i] = binary.LittleEndian.Uint64(data[24+gLen+i*8:])
	}
	t.buildIter = 0
	t.buildRank()
	return nil
}
