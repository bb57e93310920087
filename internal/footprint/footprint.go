// Package footprint provides interval sets over a flat word-addressed
// memory space. Strands declare their memory footprint as interval sets;
// task sizes s(t), cache simulation and true-dependency extraction all
// operate on them. Word granularity corresponds to the paper's B = 1
// simplification of the Parallel Memory Hierarchy model.
package footprint

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Interval is a half-open range [Lo, Hi) of word addresses.
type Interval struct {
	Lo, Hi int64
}

// Empty reports whether the interval contains no words.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Words returns the number of words in the interval.
func (iv Interval) Words() int64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// Set is a normalized interval set: sorted by Lo, pairwise disjoint,
// non-adjacent and non-empty. The zero value is the empty set.
type Set []Interval

// New builds a normalized Set from arbitrary intervals: empties are dropped,
// overlapping and adjacent intervals are merged. Input already in Lo order
// (the common case: rows of a matrix view, ranges listed left to right) is
// swept without sorting.
func New(ivs ...Interval) Set {
	tmp := make([]Interval, 0, len(ivs))
	sorted := true
	for _, iv := range ivs {
		if iv.Empty() {
			continue
		}
		if n := len(tmp); n > 0 && iv.Lo < tmp[n-1].Lo {
			sorted = false
		}
		tmp = append(tmp, iv)
	}
	if len(tmp) == 0 {
		return nil
	}
	if !sorted {
		slices.SortFunc(tmp, func(a, b Interval) int { return cmp.Compare(a.Lo, b.Lo) })
	}
	out := Set(tmp[:1])
	for _, iv := range tmp[1:] {
		out = out.appendMerged(iv)
	}
	return out
}

// appendMerged appends iv to s, which must be normalized, coalescing it
// with the last interval when they overlap or touch. iv.Lo must be at least
// the Lo of s's last interval, so appending intervals in Lo order keeps s
// normalized. The result reuses s's backing array.
func (s Set) appendMerged(iv Interval) Set {
	if iv.Empty() {
		return s
	}
	if n := len(s); n > 0 && iv.Lo <= s[n-1].Hi {
		if iv.Hi > s[n-1].Hi {
			s[n-1].Hi = iv.Hi
		}
		return s
	}
	return append(s, iv)
}

// Single returns a set holding the single half-open interval [lo, hi).
func Single(lo, hi int64) Set { return New(Interval{lo, hi}) }

// Words returns the number of distinct words in the set.
func (s Set) Words() int64 {
	var n int64
	for _, iv := range s {
		n += iv.Words()
	}
	return n
}

// Empty reports whether the set contains no words.
func (s Set) Empty() bool { return len(s) == 0 }

// Union returns the normalized union of a and b, which must be normalized
// (every Set built by this package is). It is one linear merge: the two
// operands are interleaved in Lo order and coalesced as they are appended,
// so no sort runs. An empty operand returns the other unchanged; otherwise
// the result is a fresh slice of capacity len(a)+len(b).
func Union(a, b Set) Set {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(Set, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Lo <= b[j].Lo {
			out = out.appendMerged(a[i])
			i++
		} else {
			out = out.appendMerged(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		out = out.appendMerged(a[i])
	}
	for ; j < len(b); j++ {
		out = out.appendMerged(b[j])
	}
	return out
}

// UnionAll returns the normalized union of all the given sets, which must
// be normalized. It folds Union over the halves of the list, so k sets
// totalling n intervals cost O(n log k) and never a sort.
func UnionAll(sets ...Set) Set {
	switch len(sets) {
	case 0:
		return nil
	case 1:
		return sets[0]
	}
	mid := len(sets) / 2
	return Union(UnionAll(sets[:mid]...), UnionAll(sets[mid:]...))
}

// Intersects reports whether a and b share at least one word.
func Intersects(a, b Set) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Hi <= b[j].Lo {
			i++
		} else if b[j].Hi <= a[i].Lo {
			j++
		} else {
			return true
		}
	}
	return false
}

// Contains reports whether word w is in the set.
func (s Set) Contains(w int64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].Hi > w })
	return i < len(s) && s[i].Lo <= w
}

// Each calls fn for every word in the set in increasing address order.
func (s Set) Each(fn func(word int64)) {
	for _, iv := range s {
		for w := iv.Lo; w < iv.Hi; w++ {
			fn(w)
		}
	}
}

func (s Set) String() string {
	if len(s) == 0 {
		return "{}"
	}
	parts := make([]string, len(s))
	for i, iv := range s {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
