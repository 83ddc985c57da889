package model

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// A SourceSet is a fixed-capacity bitset over source IDs [0, n). It is the
// working representation of candidate solutions S ⊆ U inside the search
// loop, where membership tests, copies and canonical cache keys dominate.
type SourceSet struct {
	words []uint64
	n     int
	count int
}

// NewSourceSet returns an empty set over IDs [0, n).
func NewSourceSet(n int) *SourceSet {
	return &SourceSet{words: make([]uint64, (n+63)/64), n: n}
}

// NewSourceSetOf returns a set over [0, n) containing the given IDs.
func NewSourceSetOf(n int, ids ...int) *SourceSet {
	s := NewSourceSet(n)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Cap returns the ID capacity n.
func (s *SourceSet) Cap() int { return s.n }

// Len returns the number of sources in the set.
func (s *SourceSet) Len() int { return s.count }

// Has reports whether id is in the set.
func (s *SourceSet) Has(id int) bool {
	if id < 0 || id >= s.n {
		return false
	}
	return s.words[id>>6]&(1<<(uint(id)&63)) != 0
}

// Add inserts id. Out-of-range IDs panic: candidate sets are built only
// from universe IDs and an out-of-range insert is a bug.
func (s *SourceSet) Add(id int) {
	if id < 0 || id >= s.n {
		panic("model: SourceSet.Add out of range")
	}
	w, b := id>>6, uint64(1)<<(uint(id)&63)
	if s.words[w]&b == 0 {
		s.words[w] |= b
		s.count++
	}
}

// Remove deletes id if present.
func (s *SourceSet) Remove(id int) {
	if id < 0 || id >= s.n {
		return
	}
	w, b := id>>6, uint64(1)<<(uint(id)&63)
	if s.words[w]&b != 0 {
		s.words[w] &^= b
		s.count--
	}
}

// Elements returns the members in ascending order.
func (s *SourceSet) Elements() []int {
	return s.AppendElements(make([]int, 0, s.count))
}

// AppendElements appends the members in ascending order to dst and
// returns the extended slice, so a caller can reuse one buffer.
func (s *SourceSet) AppendElements(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*64+b)
			w &= w - 1
		}
	}
	return dst
}

// ForEach calls fn for each member in ascending order.
func (s *SourceSet) ForEach(fn func(id int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Clone returns an independent copy.
func (s *SourceSet) Clone() *SourceSet {
	c := &SourceSet{words: make([]uint64, len(s.words)), n: s.n, count: s.count}
	copy(c.words, s.words)
	return c
}

// Equal reports whether two sets have identical membership.
func (s *SourceSet) Equal(o *SourceSet) bool {
	if s.n != o.n || s.count != o.count {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ContainsAll reports whether o ⊆ s.
func (s *SourceSet) ContainsAll(o *SourceSet) bool {
	for i, w := range o.words {
		if i >= len(s.words) {
			if w != 0 {
				return false
			}
			continue
		}
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for memoizing per-set computations
// (e.g. Match results). Equal sets produce equal keys.
func (s *SourceSet) Key() string {
	var b strings.Builder
	b.Grow(len(s.words) * 17)
	for _, w := range s.words {
		b.WriteString(strconv.FormatUint(w, 36))
		b.WriteByte(',')
	}
	return b.String()
}

// SortedKey returns a human-readable canonical key: the sorted member IDs.
func (s *SourceSet) SortedKey() string {
	ids := s.Elements()
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}
