package store

import (
	"encoding/binary"

	"switchpointer/internal/varint"
)

// A shard's arena addresses a record by a uint32: the chunk index above
// chunkBits, the position within the chunk below.
const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	maxChunks = 1 << (32 - chunkBits)
	// firstChunk is where a shard's first chunk starts before it doubles
	// towards chunkSize: most stores hold a handful of records.
	firstChunk = 256
)

// arena holds a shard's encoded records, each a uvarint length followed by
// the bytes flowrec.AppendRecord wrote, in chunks of at most chunkSize bytes
// (a longer record gets a chunk of its own). Bytes once written are never
// overwritten: a chunk grows only past its length, into fresh storage when it
// has no room, and compaction copies into new chunks. So an encoding handed
// out under the shard lock stays valid, unchanged, after the lock is
// released. Only the last chunk has spare capacity, so the slack is at most
// one chunk per shard.
type arena struct {
	chunks [][]byte
	used   int // Σ len(chunks)
	dead   int // bytes of records no slot refers to any more
}

// add stores enc and returns its offset.
func (a *arena) add(enc []byte) uint32 {
	need := varint.UvarintLen(uint64(len(enc))) + len(enc)
	n := len(a.chunks)
	if n == 0 || len(a.chunks[n-1])+need > chunkSize {
		if n == maxChunks {
			panic("store: a shard's encoded records outgrew 4 GiB")
		}
		size := max(need, chunkSize)
		if n == 0 {
			size = max(need, firstChunk)
		}
		a.chunks = append(a.chunks, make([]byte, 0, size))
		n++
	}
	c := a.chunks[n-1]
	if len(c)+need > cap(c) { // the first chunk, doubling towards chunkSize
		c = append(make([]byte, 0, min(max(2*cap(c), len(c)+need), chunkSize)), c...)
	}
	off := uint32(n-1)<<chunkBits | uint32(len(c))
	c = binary.AppendUvarint(c, uint64(len(enc)))
	a.chunks[n-1] = append(c, enc...)
	a.used += need
	return off
}

// get returns the encoding stored at off, capped to its length.
func (a *arena) get(off uint32) []byte {
	r := varint.NewReader(a.chunks[off>>chunkBits][off&(chunkSize-1):])
	n := r.Uvarint()
	return r.Rest()[:n:n]
}

// drop marks the encoding at off dead.
func (a *arena) drop(off uint32) {
	n := len(a.get(off))
	a.dead += varint.UvarintLen(uint64(n)) + n
}

// halfDead reports whether dropped encodings hold half of the storage: the
// point where compaction pays for its copy.
func (a *arena) halfDead() bool {
	return a.dead > 0 && 2*a.dead >= a.used
}
