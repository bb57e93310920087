package core

import (
	"testing"
)

// TestDescendAllDedup pins the deduplication contract of DescendAll after
// the seen-set became a linear scan over the result slice: when pedigree
// components index past strand leaves, distinct paths truncate to the
// same strand, which must appear once.
func TestDescendAllDedup(t *testing.T) {
	s := strand("s", 1)
	u := strand("u", 1)
	root := NewPar(s, u)
	mustProgram(t, root, nil)

	// Component 1 visits s and u; component 2 (wildcard) truncates at both
	// strands and expands nothing — each must stay deduplicated.
	got, err := root.DescendAll(Pedigree{Wildcard, Wildcard})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != s || got[1] != u {
		t.Fatalf("DescendAll = %v, want [s u] exactly once each", got)
	}

	// Deeper truncation: descending 1.2.2 from the root stops at s on every
	// expanded path.
	got, err = root.DescendAll(Pedigree{1, Wildcard, Wildcard})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != s {
		t.Fatalf("DescendAll truncation = %v, want [s]", got)
	}

	// Arity errors still surface.
	if _, err := root.DescendAll(Pedigree{3}); err == nil {
		t.Fatal("DescendAll past arity should fail")
	}
}

// TestDescendAppendKeepsPrefix pins the scratch-stack contract the DRS
// relies on: descending onto a non-empty stack leaves the entries below
// it untouched and appends exactly what DescendAll returns, and a failed
// descent hands the stack back at its original length.
func TestDescendAppendKeepsPrefix(t *testing.T) {
	a, b, c, d := strand("a", 1), strand("b", 1), strand("c", 1), strand("d", 1)
	root := NewPar(NewSeq(a, b), NewPar(c, d))
	mustProgram(t, root, nil)
	for _, ped := range []Pedigree{{}, {2}, {Wildcard}, {Wildcard, Wildcard}, {Wildcard, 1}, {1, Wildcard, 2}} {
		want, err := root.DescendAll(ped)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []*Node{d, c, b}
		stack, err := root.descendAppend(append([]*Node(nil), prefix...), ped)
		if err != nil {
			t.Fatal(err)
		}
		if len(stack) != len(prefix)+len(want) {
			t.Fatalf("%s: stack %v, want prefix %v then %v", ped, stack, prefix, want)
		}
		for i, n := range prefix {
			if stack[i] != n {
				t.Fatalf("%s: prefix clobbered: %v", ped, stack)
			}
		}
		for i, n := range want {
			if stack[len(prefix)+i] != n {
				t.Fatalf("%s: appended %v, want %v", ped, stack[len(prefix):], want)
			}
		}
	}
	stack, err := root.descendAppend([]*Node{a}, Pedigree{Wildcard, 3})
	if err == nil || len(stack) != 1 || stack[0] != a {
		t.Fatalf("failed descent: stack %v, err %v; want [a] and an error", stack, err)
	}
}

// BenchmarkDescendAll measures the DRS-hot wildcard descent on a
// realistic recursive tree; the allocs/op column is the point — each
// frontier is built in place in the result slice, so only its growth
// allocates (and the DRS, reusing one stack, not even that).
func BenchmarkDescendAll(b *testing.B) {
	// Balanced 4-ary tree of internal Par nodes, depth 4.
	var build func(depth int) *Node
	build = func(depth int) *Node {
		if depth == 0 {
			return strand("s", 1)
		}
		kids := make([]*Node, 4)
		for i := range kids {
			kids[i] = build(depth - 1)
		}
		return NewPar(kids...)
	}
	root := build(4)
	if _, err := NewProgram(root, nil); err != nil {
		b.Fatal(err)
	}
	ped := Pedigree{Wildcard, 2, Wildcard}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := root.DescendAll(ped); err != nil {
			b.Fatal(err)
		}
	}
}
