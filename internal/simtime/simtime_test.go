package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestConversions(t *testing.T) {
	if got := (2500 * Microsecond).Milliseconds(); got != 2.5 {
		t.Fatalf("Milliseconds = %v, want 2.5", got)
	}
	if got := (3 * Millisecond).Microseconds(); got != 3000 {
		t.Fatalf("Microseconds = %v, want 3000", got)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds = %v, want 0.25", got)
	}
	if got := (1250 * Microsecond).String(); got != "1.250ms" {
		t.Fatalf("String = %q", got)
	}
	if (5 * Millisecond).Duration() != 5*time.Millisecond {
		t.Fatalf("Duration mismatch")
	}
}

func TestTimeOrdering(t *testing.T) {
	a, b := Time(10), Time(20)
	if !a.Before(b) || b.Before(a) || a.Before(a) {
		t.Fatalf("Before wrong")
	}
	if !b.After(a) || a.After(b) || a.After(a) {
		t.Fatalf("After wrong")
	}
	if a.Add(5) != 15 || b.Sub(a) != 10 {
		t.Fatalf("Add/Sub wrong")
	}
}

func TestEpochOf(t *testing.T) {
	alpha := 10 * Millisecond
	cases := []struct {
		t Time
		e Epoch
	}{
		{0, 0},
		{9*Millisecond + 999*Microsecond, 0},
		{10 * Millisecond, 1},
		{25 * Millisecond, 2},
		{-1 * Nanosecond, -1},
		{-10 * Millisecond, -1},
		{-10*Millisecond - 1, -2},
	}
	for _, c := range cases {
		if got := EpochOf(c.t, alpha); got != c.e {
			t.Errorf("EpochOf(%v) = %d, want %d", c.t, got, c.e)
		}
	}
}

func TestEpochOfFloorProperty(t *testing.T) {
	alpha := 7 * Millisecond
	f := func(raw int32) bool {
		tt := Time(raw) * Microsecond
		e := EpochOf(tt, alpha)
		start := EpochStart(e, alpha)
		return start <= tt && tt < start+alpha
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEpochOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for non-positive alpha")
		}
	}()
	EpochOf(5, 0)
}

func TestEpochRange(t *testing.T) {
	r := EpochRange{Lo: 3, Hi: 7}
	if !r.Contains(3) || !r.Contains(7) || r.Contains(2) || r.Contains(8) {
		t.Fatalf("Contains wrong")
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	if (EpochRange{Lo: 5, Hi: 4}).Len() != 0 {
		t.Fatalf("empty range should have Len 0")
	}
	if !r.Overlaps(EpochRange{Lo: 7, Hi: 9}) || !r.Overlaps(EpochRange{Lo: 0, Hi: 3}) {
		t.Fatalf("Overlaps should be true at touching boundaries")
	}
	if r.Overlaps(EpochRange{Lo: 8, Hi: 10}) || r.Overlaps(EpochRange{Lo: 0, Hi: 2}) {
		t.Fatalf("Overlaps should be false when disjoint")
	}
	u := r.Union(EpochRange{Lo: 1, Hi: 4})
	if u.Lo != 1 || u.Hi != 7 {
		t.Fatalf("Union = %v", u)
	}
	if r.String() != "[3,7]" {
		t.Fatalf("String = %q", r.String())
	}
}

func TestClock(t *testing.T) {
	c := NewClock(3 * Millisecond)
	if c.Local(10*Millisecond) != 13*Millisecond {
		t.Fatalf("Local wrong")
	}
	alpha := 10 * Millisecond
	if c.EpochAt(8*Millisecond, alpha) != 1 {
		t.Fatalf("EpochAt: 8ms true time with +3ms offset should be epoch 1")
	}
	neg := NewClock(-5 * Millisecond)
	if neg.EpochAt(2*Millisecond, alpha) != -1 {
		t.Fatalf("EpochAt with negative local time should floor to -1")
	}
}
