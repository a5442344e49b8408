// Package bitset provides a dense, fixed-capacity bitset used throughout the
// repository for neighbor sets, candidate sets, and availability vectors.
//
// The query algorithms of the paper evaluate set expressions such as
// |VA ∩ N_v| and |VS − {v} − N_v| millions of times; representing every set
// as a []uint64 word vector turns those into a handful of AND/ANDNOT +
// popcount loops.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bitset over the universe [0, Len()). The zero value is an
// empty set of length 0; use New to create a set with capacity.
type Set struct {
	words []uint64
	n     int // number of valid bits
}

// New returns an empty Set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewSlab returns count empty Sets over the universe [0, n) whose word
// vectors are carved from one allocation: a radius graph's neighbor sets
// are built together and die together, so they need not be count separate
// objects.
func NewSlab(count, n int) []*Set {
	if count < 0 || n < 0 {
		panic("bitset: negative length")
	}
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*w)
	sets := make([]Set, count)
	out := make([]*Set, count)
	for i := range sets {
		sets[i] = Set{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
		out[i] = &sets[i]
	}
	return out
}

// FromIndices returns a Set over [0, n) with the given indices set.
func FromIndices(n int, idx ...int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// Len returns the size of the universe (not the number of set bits).
func (s *Set) Len() int { return s.n }

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// CopyFrom overwrites s with the contents of t. The two sets must have the
// same universe size.
func (s *Set) CopyFrom(t *Set) {
	s.sameLen(t)
	copy(s.words, t.words)
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every element of the universe.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the tail bits beyond n in the last word.
func (s *Set) trim() {
	if r := s.n % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(r)) - 1
	}
}

func (s *Set) sameLen(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: mismatched lengths %d and %d", s.n, t.n))
	}
}

// And sets s = s ∩ t.
func (s *Set) And(t *Set) {
	s.sameLen(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// Or sets s = s ∪ t.
func (s *Set) Or(t *Set) {
	s.sameLen(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// AndNot sets s = s − t.
func (s *Set) AndNot(t *Set) {
	s.sameLen(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// AndCount returns |s ∩ t| without allocating.
func (s *Set) AndCount(t *Set) int {
	s.sameLen(t)
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// AndNotCount returns |s − t| without allocating.
func (s *Set) AndNotCount(t *Set) int {
	s.sameLen(t)
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] &^ t.words[i])
	}
	return c
}

// Intersects reports whether s ∩ t is non-empty.
func (s *Set) Intersects(t *Set) bool {
	s.sameLen(t)
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// IsSubsetOf reports whether every element of s is in t.
func (s *Set) IsSubsetOf(t *Set) bool {
	s.sameLen(t)
	for i := range s.words {
		if s.words[i]&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// NextSet returns the smallest set index >= i, or -1 if none exists.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	w := i / wordBits
	word := s.words[w] >> uint(i%wordBits)
	if word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(s.words[w])
		}
	}
	return -1
}

// PrevSet returns the largest set index <= i, or -1 if none exists.
func (s *Set) PrevSet(i int) int {
	if i >= s.n {
		i = s.n - 1
	}
	if i < 0 {
		return -1
	}
	w := i / wordBits
	word := s.words[w] << uint(wordBits-1-i%wordBits)
	if word != 0 {
		return i - bits.LeadingZeros64(word)
	}
	for w--; w >= 0; w-- {
		if s.words[w] != 0 {
			return w*wordBits + wordBits - 1 - bits.LeadingZeros64(s.words[w])
		}
	}
	return -1
}

// ForEach calls fn for every set index in ascending order. Iteration stops
// early if fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if !fn(w*wordBits + b) {
				return
			}
			word &= word - 1
		}
	}
}

// Indices returns the set elements in ascending order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// LongestRunContaining returns the bounds [lo, hi] of the maximal run of
// consecutive set bits that contains index at. It returns ok=false when bit
// at itself is not set. Both bounds are inclusive.
//
// STGSelect uses this to maintain TS, the maximal interval of time slots
// common to the current intermediate solution that contains the pivot slot.
func (s *Set) LongestRunContaining(at int) (lo, hi int, ok bool) {
	if !s.Contains(at) {
		return 0, 0, false
	}
	lo, hi = at, at
	for lo > 0 && s.Contains(lo-1) {
		lo--
	}
	for hi+1 < s.n && s.Contains(hi+1) {
		hi++
	}
	return lo, hi, true
}

// String renders the set as {i, j, ...} for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", i)
		first = false
		return true
	})
	b.WriteByte('}')
	return b.String()
}
