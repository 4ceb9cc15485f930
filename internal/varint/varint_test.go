package varint

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

func zz(v int64) []byte { return binary.AppendVarint(nil, v) }

// TestReader: each row runs one read over its input and checks the value,
// the bytes left and the fault's message ("" for none).
func TestReader(t *testing.T) {
	nines := bytes.Repeat([]byte{0xff}, 9)
	for _, row := range []struct {
		name string
		in   []byte
		read func(r *Reader) any
		want any
		left int
		err  string
	}{
		{"uvarint", append(uv(300), 7), func(r *Reader) any { return r.Uvarint() }, uint64(300), 1, ""},
		{"uvarint max", append(nines, 0x01), func(r *Reader) any { return r.Uvarint() }, uint64(math.MaxUint64), 0, ""},
		{"empty", nil, func(r *Reader) any { return r.Uvarint() }, uint64(0), 0, "truncated or overlong uvarint"},
		{"truncated", []byte{0x80, 0x80}, func(r *Reader) any { return r.Uvarint() }, uint64(0), 0, "truncated or overlong uvarint"},
		{"10th byte past 1", append(nines, 0x02), func(r *Reader) any { return r.Uvarint() }, uint64(0), 0, "truncated or overlong uvarint"},
		{"11-byte run", append(nines, 0x80, 0x00), func(r *Reader) any { return r.Uvarint() }, uint64(0), 0, "truncated or overlong uvarint"},
		{"bounded at its limit", uv(65535), func(r *Reader) any { return r.Bounded("port", 65535) }, uint64(65535), 0, ""},
		{"bounded over its limit", uv(65536), func(r *Reader) any { return r.Bounded("port", 65535) }, uint64(0), 0, "port: 65536 overflows"},
		{"bounded truncated", []byte{0x80}, func(r *Reader) any { return r.Bounded("port", 65535) }, uint64(0), 0, "port: truncated or overlong uvarint"},
		{"varint min", zz(math.MinInt64), func(r *Reader) any { return r.Varint("lo", math.MaxUint64) }, int64(math.MinInt64), 0, ""},
		{"varint max", zz(math.MaxInt64), func(r *Reader) any { return r.Varint("hi", math.MaxUint64) }, int64(math.MaxInt64), 0, ""},
		{"int32 min", zz(math.MinInt32), func(r *Reader) any { return r.Varint("switch", math.MaxUint32) }, int64(math.MinInt32), 0, ""},
		{"int32 max", zz(math.MaxInt32), func(r *Reader) any { return r.Varint("switch", math.MaxUint32) }, int64(math.MaxInt32), 0, ""},
		{"below int32", zz(math.MinInt32 - 1), func(r *Reader) any { return r.Varint("switch", math.MaxUint32) }, int64(0), 0, "switch: -2147483649 overflows"},
		{"above int32", zz(math.MaxInt32 + 1), func(r *Reader) any { return r.Varint("switch", math.MaxUint32) }, int64(0), 0, "switch: 2147483648 overflows"},
		{"varint truncated", []byte{0xff}, func(r *Reader) any { return r.Varint("lo", math.MaxUint64) }, int64(0), 0, "lo: truncated or overlong varint"},
		{"byte", []byte{9, 8}, func(r *Reader) any { return r.Byte("flags") }, byte(9), 1, ""},
		{"no byte", nil, func(r *Reader) any { return r.Byte("flags") }, byte(0), 0, "flags: truncated byte"},
	} {
		r := NewReader(row.in)
		got := row.read(&r)
		err := ""
		if r.Err() != nil {
			err = r.Err().Error()
		}
		if got != row.want || r.Len() != row.left || err != row.err || r.Bad() != (err != "") {
			t.Errorf("%s: read %v with %d bytes left, fault %q; want %v, %d, %q", row.name, got, r.Len(), err, row.want, row.left, row.err)
		}
	}
}

// TestFaultSticks: after the first fault every read returns zero, reads
// nothing, and leaves the first fault as Err's.
func TestFaultSticks(t *testing.T) {
	in := append(uv(70000), uv(1)...)
	r := NewReader(in)
	if v := r.Bounded("src_port", math.MaxUint16); v != 0 || !r.Bad() {
		t.Fatalf("Bounded over its limit = %d, bad %v", v, r.Bad())
	}
	const first = "src_port: 70000 overflows"
	if r.Uvarint() != 0 || r.Bounded("x", math.MaxUint64) != 0 || r.Varint("x", math.MaxUint64) != 0 ||
		r.Byte("x") != 0 || r.Len() != 0 || r.Rest() != nil {
		t.Fatal("a read after the first fault returned a value or left bytes")
	}
	if err := r.Err(); err == nil || err.Error() != first {
		t.Fatalf("Err = %v after later reads; want the first fault, %q", err, first)
	}
	if r := NewReader(nil); r.Err() != nil || r.Bad() {
		t.Fatal("a reader with no reads has a fault")
	}
}

// TestLen: UvarintLen and VarintLen count what encoding/binary appends.
func TestLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		if got, want := UvarintLen(v), len(uv(v)); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", v, got, want)
		}
		if got, want := VarintLen(int64(v)), len(zz(int64(v))); got != want {
			t.Errorf("VarintLen(%d) = %d, want %d", int64(v), got, want)
		}
	}
}

// FuzzReader checks the reader against encoding/binary, its oracle, on
// arbitrary bytes: Uvarint and Varint read each varint in turn exactly as
// binary.Uvarint and binary.Varint do — the same value, the same verdict,
// the same bytes consumed — and Bounded and a bounded Varint accept exactly
// the values within limit. The committed corpus (testdata/fuzz) holds the
// one- and ten-byte edges, an eleven-byte run and truncations.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, limit uint64) {
		u, s := NewReader(data), NewReader(data)
		for rest := data; ; {
			want, n := binary.Uvarint(rest)
			got := u.Uvarint()
			if (n > 0) == u.Bad() || got != want && n > 0 || got != 0 && n <= 0 {
				t.Fatalf("Uvarint(%x) = %d, bad %v; binary.Uvarint: %d, %d", rest, got, u.Bad(), want, n)
			}
			wantS, nS := binary.Varint(rest)
			if gotS := s.Varint("v", math.MaxUint64); (nS > 0) == s.Bad() || gotS != wantS && nS > 0 {
				t.Fatalf("Varint(%x) = %d, bad %v; binary.Varint: %d, %d", rest, gotS, s.Bad(), wantS, nS)
			}
			if n <= 0 {
				break
			}
			if rest = rest[n:]; u.Len() != len(rest) || s.Len() != len(rest) {
				t.Fatalf("after a %d-byte varint the readers have %d and %d bytes left, want %d", n, u.Len(), s.Len(), len(rest))
			}
		}
		want, n := binary.Uvarint(data)
		b := NewReader(data)
		got := b.Bounded("f", limit)
		if ok := n > 0 && want <= limit; ok == b.Bad() || ok && (got != want || b.Len() != len(data)-n) || !ok && got != 0 {
			t.Fatalf("Bounded(%x, %d) = %d, bad %v; binary.Uvarint: %d, %d", data, limit, got, b.Bad(), want, n)
		}
		wantS, _ := binary.Varint(data)
		v := NewReader(data)
		gotS := v.Varint("f", limit)
		if ok := n > 0 && want <= limit; ok == v.Bad() || ok && (gotS != wantS || v.Len() != len(data)-n) || !ok && gotS != 0 {
			t.Fatalf("Varint(%x, %d) = %d, bad %v; binary.Varint: %d", data, limit, gotS, v.Bad(), wantS)
		}
	})
}
