package journal

import (
	"testing"
	"testing/quick"
)

// TestPosCompare: the epoch decides first, so a fenced history's long
// tail never outranks a newer epoch; the seq breaks ties within one
// epoch; and the order is a total order.
func TestPosCompare(t *testing.T) {
	cases := []struct {
		a, b Pos
		want int
	}{
		{Pos{1, 900}, Pos{2, 100}, -1}, // older epoch is behind, whatever its seq
		{Pos{2, 100}, Pos{1, 900}, 1},
		{Pos{3, 4}, Pos{3, 5}, -1}, // same epoch: the seq decides
		{Pos{3, 5}, Pos{3, 4}, 1},
		{Pos{3, 5}, Pos{3, 5}, 0},
		{Pos{}, Pos{}, 0},
		{Pos{0, 7}, Pos{1, 0}, -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%+v.Compare(%+v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}

	// Small fields, so that equal epochs and equal seqs are common.
	pos := func(e, s uint8) Pos { return Pos{Epoch: uint64(e % 3), Seq: uint64(s % 4)} }
	antisymmetric := func(ea, sa, eb, sb uint8) bool {
		a, b := pos(ea, sa), pos(eb, sb)
		c := a.Compare(b)
		return c == -b.Compare(a) && (c == 0) == (a == b)
	}
	if err := quick.Check(antisymmetric, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	transitive := func(ea, sa, eb, sb, ec, sc uint8) bool {
		a, b, c := pos(ea, sa), pos(eb, sb), pos(ec, sc)
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}
	if err := quick.Check(transitive, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("transitivity: %v", err)
	}
}
