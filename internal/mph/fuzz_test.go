package mph

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzUnmarshalBinary feeds arbitrary bytes to the decoder every /mph body
// and switch snapshot restore reaches. Whatever it accepts must be a table
// Lookup can index: the bytes re-encode to themselves, and any key looks up
// to an index in [0, Len()] without panicking.
func FuzzUnmarshalBinary(f *testing.F) {
	for _, n := range []int{1, 3, 100} {
		tbl, err := Build(distinctKeys(n, int64(n)))
		if err != nil {
			f.Fatal(err)
		}
		data, _ := tbl.MarshalBinary()
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tbl Table
		if err := tbl.UnmarshalBinary(data); err != nil {
			return
		}
		if again, _ := tbl.MarshalBinary(); !bytes.Equal(again, data) {
			t.Fatalf("accepted bytes do not re-encode to themselves\n got %x\nwant %x", again, data)
		}
		keys := []uint32{0, 1, 0xffffffff}
		for i := 0; i+4 <= len(data) && i < 64; i += 4 {
			keys = append(keys, binary.LittleEndian.Uint32(data[i:]))
		}
		for _, k := range keys {
			if idx := tbl.Lookup(k); idx < 0 || idx > tbl.Len() {
				t.Fatalf("Lookup(%d) = %d, outside [0, %d]", k, idx, tbl.Len())
			}
		}
	})
}
