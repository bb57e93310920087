package footprint

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewNormalizes(t *testing.T) {
	cases := []struct {
		name string
		in   []Interval
		want Set
	}{
		{"empty", nil, nil},
		{"drops empties", []Interval{{5, 5}, {7, 3}}, nil},
		{"sorts", []Interval{{10, 12}, {0, 2}}, Set{{0, 2}, {10, 12}}},
		{"merges overlap", []Interval{{0, 5}, {3, 8}}, Set{{0, 8}}},
		{"merges adjacent", []Interval{{0, 5}, {5, 8}}, Set{{0, 8}}},
		{"contained", []Interval{{0, 10}, {3, 5}}, Set{{0, 10}}},
		{"chain", []Interval{{0, 2}, {2, 4}, {4, 6}}, Set{{0, 6}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := New(c.in...)
			if len(got) != len(c.want) {
				t.Fatalf("New(%v) = %v, want %v", c.in, got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("New(%v) = %v, want %v", c.in, got, c.want)
				}
			}
		})
	}
}

func TestWords(t *testing.T) {
	s := New(Interval{0, 4}, Interval{10, 11})
	if got := s.Words(); got != 5 {
		t.Fatalf("Words = %d, want 5", got)
	}
	if got := (Set)(nil).Words(); got != 0 {
		t.Fatalf("empty Words = %d, want 0", got)
	}
}

func TestUnion(t *testing.T) {
	a := Single(0, 10)
	b := Single(5, 20)
	u := Union(a, b)
	if u.Words() != 20 {
		t.Fatalf("Union words = %d, want 20", u.Words())
	}
	if got := Union(nil, a); got.Words() != 10 {
		t.Fatalf("Union(nil,a) = %v", got)
	}
	if got := Union(a, nil); got.Words() != 10 {
		t.Fatalf("Union(a,nil) = %v", got)
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		a, b Set
		want bool
	}{
		{Single(0, 10), Single(10, 20), false},
		{Single(0, 10), Single(9, 20), true},
		{Single(0, 10), nil, false},
		{New(Interval{0, 2}, Interval{8, 10}), Single(3, 7), false},
		{New(Interval{0, 2}, Interval{8, 10}), Single(3, 9), true},
	}
	for i, c := range cases {
		if got := Intersects(c.a, c.b); got != c.want {
			t.Errorf("case %d: Intersects(%v,%v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := Intersects(c.b, c.a); got != c.want {
			t.Errorf("case %d: Intersects(%v,%v) = %v, want %v (symmetry)", i, c.b, c.a, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	s := New(Interval{2, 4}, Interval{8, 10})
	for w, want := range map[int64]bool{1: false, 2: true, 3: true, 4: false, 8: true, 9: true, 10: false} {
		if got := s.Contains(w); got != want {
			t.Errorf("Contains(%d) = %v, want %v", w, got, want)
		}
	}
}

func TestEach(t *testing.T) {
	s := New(Interval{0, 3}, Interval{5, 7})
	var got []int64
	s.Each(func(w int64) { got = append(got, w) })
	want := []int64{0, 1, 2, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Each visited %v, want %v", got, want)
		}
	}
}

// randomSet builds a random raw interval list for property tests.
func randomSet(r *rand.Rand) []Interval {
	n := r.Intn(8)
	ivs := make([]Interval, n)
	for i := range ivs {
		lo := int64(r.Intn(100))
		ivs[i] = Interval{lo, lo + int64(r.Intn(10))}
	}
	return ivs
}

func TestQuickNormalizedInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(randomSet(r)...)
		for i, iv := range s {
			if iv.Empty() {
				return false
			}
			if i > 0 && s[i-1].Hi >= iv.Lo {
				return false // must be disjoint and non-adjacent
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionWordsConsistent(t *testing.T) {
	// |A ∪ B| computed by Union must match membership counting.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := New(randomSet(r)...), New(randomSet(r)...)
		u := Union(a, b)
		var count int64
		for w := int64(0); w < 120; w++ {
			if a.Contains(w) || b.Contains(w) {
				count++
				if !u.Contains(w) {
					return false
				}
			} else if u.Contains(w) {
				return false
			}
		}
		return count == u.Words()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectsMatchesMembership(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := New(randomSet(r)...), New(randomSet(r)...)
		want := false
		for w := int64(0); w < 120 && !want; w++ {
			want = a.Contains(w) && b.Contains(w)
		}
		return Intersects(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// byLo orders raw intervals for the reference normalization.
type byLo []Interval

func (s byLo) Len() int           { return len(s) }
func (s byLo) Less(i, j int) bool { return s[i].Lo < s[j].Lo }
func (s byLo) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// referenceNormalize is the original concatenate-sort-sweep normalization
// that New, Union and UnionAll replaced with sweeps and linear merges. It
// is kept here as the oracle they must agree with bit for bit.
func referenceNormalize(ivs ...Interval) Set {
	var tmp []Interval
	for _, iv := range ivs {
		if !iv.Empty() {
			tmp = append(tmp, iv)
		}
	}
	if len(tmp) == 0 {
		return nil
	}
	sort.Sort(byLo(tmp))
	out := tmp[:1]
	for _, iv := range tmp[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return Set(out)
}

// concat flattens sets into one raw interval list for the reference.
func concat(sets ...Set) []Interval {
	var all []Interval
	for _, s := range sets {
		all = append(all, s...)
	}
	return all
}

// rawIntervals draws up to max intervals on a small address range, so
// overlaps, adjacency and containment are common; widths in [-2, 6) make
// some intervals empty or inverted. Half the lists come back in Lo order
// to exercise New's no-sort path.
func rawIntervals(r *rand.Rand, max int) []Interval {
	ivs := make([]Interval, r.Intn(max+1))
	for i := range ivs {
		lo := int64(r.Intn(40))
		ivs[i] = Interval{lo, lo + int64(r.Intn(8)) - 2}
	}
	if r.Intn(2) == 0 {
		sort.Sort(byLo(ivs))
	}
	return ivs
}

func TestNewMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		raw := rawIntervals(r, 12)
		if got, want := New(raw...), referenceNormalize(raw...); !slices.Equal(got, want) {
			t.Fatalf("New(%v) = %v, want %v", raw, got, want)
		}
	}
}

func TestUnionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		a, b := New(rawIntervals(r, 8)...), New(rawIntervals(r, 8)...)
		got, want := Union(a, b), referenceNormalize(concat(a, b)...)
		if !slices.Equal(got, want) {
			t.Fatalf("Union(%v, %v) = %v, want %v", a, b, got, want)
		}
		// An empty operand hands back the other one; a real merge holds
		// at most the operands' intervals.
		switch {
		case len(a) == 0 && len(b) == 0:
		case len(b) == 0:
			if &got[0] != &a[0] {
				t.Fatalf("Union(%v, {}) copied its operand", a)
			}
		case len(a) == 0:
			if &got[0] != &b[0] {
				t.Fatalf("Union({}, %v) copied its operand", b)
			}
		case cap(got) > len(a)+len(b):
			t.Fatalf("Union(%v, %v) has capacity %d, more than its operands' %d intervals", a, b, cap(got), len(a)+len(b))
		}
	}
}

func TestUnionAllMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, k := range []int{0, 1, 2, 3, 5, 8, 13} {
		for trial := 0; trial < 1000; trial++ {
			sets := make([]Set, k)
			total := 0
			for i := range sets {
				sets[i] = New(rawIntervals(r, 6)...)
				total += cap(sets[i])
			}
			got, want := UnionAll(sets...), referenceNormalize(concat(sets...)...)
			if !slices.Equal(got, want) {
				t.Fatalf("UnionAll(%v) = %v, want %v", sets, got, want)
			}
			if cap(got) > total {
				t.Fatalf("UnionAll(%v) has capacity %d, more than its operands' %d", sets, cap(got), total)
			}
		}
	}
}

// decodeIntervals turns fuzz bytes into raw intervals, two bytes each:
// a Lo in [0, 256) and a signed width, so empties and inversions occur.
func decodeIntervals(data []byte) []Interval {
	ivs := make([]Interval, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		lo := int64(data[i])
		ivs = append(ivs, Interval{lo, lo + int64(int8(data[i+1]))})
	}
	return ivs
}

func FuzzUnion(f *testing.F) {
	f.Add([]byte{0, 5, 5, 3}, []byte{2, 1, 8, 4})
	f.Add([]byte{10, 2, 0, 2}, []byte{})
	f.Add([]byte{}, []byte{3, 0, 7, 250})
	f.Fuzz(func(t *testing.T, x, y []byte) {
		rawA, rawB := decodeIntervals(x), decodeIntervals(y)
		a, b := New(rawA...), New(rawB...)
		if want := referenceNormalize(rawA...); !slices.Equal(a, want) {
			t.Fatalf("New(%v) = %v, want %v", rawA, a, want)
		}
		want := referenceNormalize(append(rawA, rawB...)...)
		if got := Union(a, b); !slices.Equal(got, want) {
			t.Fatalf("Union(%v, %v) = %v, want %v", a, b, got, want)
		}
		if got := Union(b, a); !slices.Equal(got, want) {
			t.Fatalf("Union(%v, %v) = %v, want %v", b, a, got, want)
		}
		if got := UnionAll(a, nil, b, a); !slices.Equal(got, want) {
			t.Fatalf("UnionAll(%v, nil, %v, %v) = %v, want %v", a, b, a, got, want)
		}
	})
}
