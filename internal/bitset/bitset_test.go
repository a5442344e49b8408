package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false, want true", i)
		}
	}
	if s.Contains(1) || s.Contains(128) {
		t.Error("Contains reported an element that was never added")
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 2 {
		t.Error("Remove(64) did not remove the element")
	}
}

func TestContainsOutOfRange(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(100) {
		t.Error("Contains out of range should be false")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(10) on a length-10 set should panic")
		}
	}()
	New(10).Add(10)
}

func TestFillAndClear(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Errorf("n=%d: Fill then Count = %d", n, s.Count())
		}
		s.Clear()
		if !s.Empty() {
			t.Errorf("n=%d: Clear left elements", n)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(100, 1, 2, 3, 50, 99)
	b := FromIndices(100, 2, 3, 4, 99)

	and := a.Clone()
	and.And(b)
	if got := and.Indices(); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 99 {
		t.Errorf("And = %v, want [2 3 99]", got)
	}
	if a.AndCount(b) != 3 {
		t.Errorf("AndCount = %d, want 3", a.AndCount(b))
	}

	or := a.Clone()
	or.Or(b)
	if or.Count() != 6 {
		t.Errorf("Or count = %d, want 6", or.Count())
	}

	diff := a.Clone()
	diff.AndNot(b)
	if got := diff.Indices(); len(got) != 2 || got[0] != 1 || got[1] != 50 {
		t.Errorf("AndNot = %v, want [1 50]", got)
	}
	if a.AndNotCount(b) != 2 {
		t.Errorf("AndNotCount = %d, want 2", a.AndNotCount(b))
	}

	if !a.Intersects(b) {
		t.Error("Intersects = false, want true")
	}
	c := FromIndices(100, 7, 8)
	if a.Intersects(c) {
		t.Error("Intersects with disjoint set = true")
	}
	if !and.IsSubsetOf(a) || !and.IsSubsetOf(b) {
		t.Error("a∩b should be a subset of both")
	}
	if a.IsSubsetOf(b) {
		t.Error("a is not a subset of b")
	}
}

func TestCopyFrom(t *testing.T) {
	a := FromIndices(100, 1, 64, 99)
	b := New(100)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Error("CopyFrom did not copy")
	}
	b.Add(2)
	if a.Contains(2) {
		t.Error("CopyFrom aliased the underlying words")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with mismatched lengths should panic")
		}
	}()
	b.CopyFrom(New(5))
}

func TestEqualDifferentLengths(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Error("sets over different universes are never equal")
	}
}

func TestIndicesEmpty(t *testing.T) {
	if got := New(20).Indices(); len(got) != 0 {
		t.Errorf("Indices of empty = %v", got)
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths should panic")
		}
	}()
	New(10).And(New(11))
}

func TestNextPrevSet(t *testing.T) {
	s := FromIndices(200, 3, 64, 65, 199)
	cases := []struct{ from, want int }{
		{0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 65}, {66, 199}, {199, 199},
	}
	for _, c := range cases {
		if got := s.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if s.NextSet(200) != -1 {
		t.Error("NextSet past the end should be -1")
	}
	prevCases := []struct{ from, want int }{
		{199, 199}, {198, 65}, {65, 65}, {64, 64}, {63, 3}, {3, 3}, {2, -1},
	}
	for _, c := range prevCases {
		if got := s.PrevSet(c.from); got != c.want {
			t.Errorf("PrevSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if New(10).NextSet(0) != -1 {
		t.Error("NextSet on empty set should be -1")
	}
	if New(10).PrevSet(9) != -1 {
		t.Error("PrevSet on empty set should be -1")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromIndices(50, 1, 2, 3, 4)
	n := 0
	s.ForEach(func(i int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("ForEach visited %d elements after early stop, want 2", n)
	}
}

func TestLongestRunContaining(t *testing.T) {
	s := FromIndices(20, 2, 3, 4, 6, 7, 8, 9, 15)
	lo, hi, ok := s.LongestRunContaining(7)
	if !ok || lo != 6 || hi != 9 {
		t.Errorf("run at 7 = [%d,%d] ok=%v, want [6,9] true", lo, hi, ok)
	}
	lo, hi, ok = s.LongestRunContaining(2)
	if !ok || lo != 2 || hi != 4 {
		t.Errorf("run at 2 = [%d,%d] ok=%v, want [2,4] true", lo, hi, ok)
	}
	lo, hi, ok = s.LongestRunContaining(15)
	if !ok || lo != 15 || hi != 15 {
		t.Errorf("run at 15 = [%d,%d] ok=%v, want [15,15] true", lo, hi, ok)
	}
	if _, _, ok = s.LongestRunContaining(5); ok {
		t.Error("run at unset bit should report ok=false")
	}
	if _, _, ok = s.LongestRunContaining(-1); ok {
		t.Error("run at negative index should report ok=false")
	}
}

func TestRunSpansWordBoundary(t *testing.T) {
	s := New(200)
	for i := 60; i <= 70; i++ {
		s.Add(i)
	}
	lo, hi, ok := s.LongestRunContaining(64)
	if !ok || lo != 60 || hi != 70 {
		t.Errorf("run = [%d,%d] ok=%v, want [60,70] true", lo, hi, ok)
	}
}

func TestString(t *testing.T) {
	s := FromIndices(10, 1, 5)
	if got := s.String(); got != "{1, 5}" {
		t.Errorf("String = %q, want {1, 5}", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Errorf("empty String = %q, want {}", got)
	}
}

// model is a map-backed reference implementation used by the property tests.
type model map[int]bool

func randSet(r *rand.Rand, n int) (*Set, model) {
	s := New(n)
	m := model{}
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s.Add(i)
			m[i] = true
		}
	}
	return s, m
}

// TestQuickAgainstModel cross-checks the bit-parallel operations against a
// naive map-based model on random inputs.
func TestQuickAgainstModel(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%150 + 1
		r := rand.New(rand.NewSource(seed))
		a, ma := randSet(r, n)
		b, mb := randSet(r, n)

		andCount := 0
		notCount := 0
		union := map[int]bool{}
		for i := range ma {
			union[i] = true
			if mb[i] {
				andCount++
			} else {
				notCount++
			}
		}
		for i := range mb {
			union[i] = true
		}
		if a.AndCount(b) != andCount {
			return false
		}
		if a.AndNotCount(b) != notCount {
			return false
		}
		u := a.Clone()
		u.Or(b)
		if u.Count() != len(union) {
			return false
		}
		// Clone must not alias.
		c := a.Clone()
		c.Clear()
		if a.Count() != len(ma) {
			return false
		}
		// NextSet walk must visit exactly the model's elements.
		visited := 0
		for i := a.NextSet(0); i != -1; i = a.NextSet(i + 1) {
			if !ma[i] {
				return false
			}
			visited++
		}
		return visited == len(ma)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickRuns verifies LongestRunContaining against a scan-based oracle.
func TestQuickRuns(t *testing.T) {
	f := func(seed int64, sz uint8, at uint8) bool {
		n := int(sz)%120 + 1
		r := rand.New(rand.NewSource(seed))
		s, m := randSet(r, n)
		i := int(at) % n
		lo, hi, ok := s.LongestRunContaining(i)
		if !m[i] {
			return !ok
		}
		wantLo, wantHi := i, i
		for wantLo > 0 && m[wantLo-1] {
			wantLo--
		}
		for wantHi+1 < n && m[wantHi+1] {
			wantHi++
		}
		return ok && lo == wantLo && hi == wantHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAndCount(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	s1, _ := randSet(r, 12800)
	s2, _ := randSet(r, 12800)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s1.AndCount(s2)
	}
}

// TestNewSlabSetsAreIndependent: the sets share one allocation but not
// one bit — each covers its own words, and none can grow into the next.
func TestNewSlabSetsAreIndependent(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		sets := NewSlab(5, n)
		if len(sets) != 5 {
			t.Fatalf("n=%d: %d sets, want 5", n, len(sets))
		}
		for i, s := range sets {
			if s.Len() != n || !s.Empty() {
				t.Fatalf("n=%d: set %d has length %d, empty %v", n, i, s.Len(), s.Empty())
			}
			if cap(s.words) != len(s.words) {
				t.Fatalf("n=%d: set %d can grow into its neighbor (len %d cap %d)", n, i, len(s.words), cap(s.words))
			}
		}
		if n == 0 {
			continue
		}
		sets[2].Fill()
		for i, s := range sets {
			if want := map[bool]int{true: n, false: 0}[i == 2]; s.Count() != want {
				t.Fatalf("n=%d: after filling set 2, set %d holds %d bits, want %d", n, i, s.Count(), want)
			}
		}
	}
	if len(NewSlab(0, 10)) != 0 {
		t.Fatal("NewSlab(0, n) should be empty")
	}
}
