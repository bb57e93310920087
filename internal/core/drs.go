package core

import "fmt"

// Rewrite runs the DAG Rewriting System on a frozen program: every fire
// construct's dashed arrow is recursively rewritten using the program's
// rule set until all arrows connect concrete tasks, yielding the event
// graph of the algorithm DAG.
//
// The rewriting follows §2 of the paper:
//
//   - a serial node contributes solid arrows between consecutive children;
//   - a parallel node contributes nothing;
//   - a fire node contributes a dashed arrow of its type between its two
//     children, which is rewritten by the fire rules. A dashed arrow whose
//     endpoints are both strands becomes a solid arrow (or vanishes if the
//     type has no rules). Otherwise each rule +p T~> -q adds an arrow of
//     type T from the source's subtask at pedigree p to the sink's subtask
//     at q; rules typed FullDep add solid arrows directly.
//
// Descending a pedigree stops early at strands, so recursion that
// terminates at different depths on the two sides attaches dependencies to
// whole base-case strands, which is conservative and race-free.
func Rewrite(p *Program) (*Graph, error) {
	g := newGraph(p)

	// The dashed-arrow dedup set is keyed by (fire type, source node, sink
	// node). Fire type names are interned to small integers once so the
	// hot recursion hashes a single uint64 instead of a struct carrying a
	// string. The packing supports 2^24 nodes; programs beyond that fall
	// back to a struct-keyed set.
	typeIdx := make(map[string]uint64, len(p.Rules))
	for name := range p.Rules {
		typeIdx[name] = uint64(len(typeIdx))
	}
	const idBits, idMask = 24, 1<<24 - 1
	packable := len(p.Nodes) <= idMask && len(typeIdx) <= 0xffff
	seen := make(map[uint64]struct{})
	type wideKey struct {
		typ  string
		a, b int
	}
	var seenWide map[wideKey]struct{}
	if !packable {
		seenWide = make(map[wideKey]struct{})
	}
	visit := func(typ string, a, b *Node) bool {
		if packable {
			k := typeIdx[typ]<<(2*idBits) | uint64(a.ID)<<idBits | uint64(b.ID)
			if _, done := seen[k]; done {
				return false
			}
			seen[k] = struct{}{}
			return true
		}
		k := wideKey{typ, a.ID, b.ID}
		if _, done := seenWide[k]; done {
			return false
		}
		seenWide[k] = struct{}{}
		return true
	}

	// stack holds the endpoint lists of every rule being expanded on the
	// current recursion path. Each rule appends its source and sink lists
	// past its caller's and truncates back when done, so nested calls
	// never clobber an enclosing rule's lists, and the whole rewrite
	// allocates only when the stack grows.
	var stack []*Node
	var rewrite func(typ string, a, b *Node) error
	rewrite = func(typ string, a, b *Node) error {
		if !visit(typ, a, b) {
			return nil
		}
		rules := p.Rules[typ]
		if len(rules) == 0 {
			return nil // behaves like "‖"
		}
		if a.IsLeaf() || b.IsLeaf() {
			// At least one endpoint is a base-case strand: the dashed
			// arrow becomes a solid full dependency. When both sides
			// recurse in lockstep (equal task sizes, as in all the
			// paper's algorithms) both endpoints are strands here; with
			// mismatched depths this is conservative but never unsafe.
			return g.addArrow(a, b)
		}
		for _, r := range rules {
			base := len(stack)
			var err error
			if stack, err = a.descendAppend(stack, r.Src); err != nil {
				return fmt.Errorf("fire type %q, rule %s, source side: %w", typ, r, err)
			}
			mid := len(stack)
			if stack, err = b.descendAppend(stack, r.Dst); err != nil {
				return fmt.Errorf("fire type %q, rule %s, sink side: %w", typ, r, err)
			}
			end := len(stack)
			// Index through stack, which a nested call may reallocate;
			// it leaves stack[:end] intact either way.
			for i := base; i < mid; i++ {
				for j := mid; j < end; j++ {
					sa, sb := stack[i], stack[j]
					if r.Type == FullDep {
						if err := g.addArrow(sa, sb); err != nil {
							return fmt.Errorf("fire type %q, rule %s: %w", typ, r, err)
						}
						continue
					}
					if err := rewrite(r.Type, sa, sb); err != nil {
						return err
					}
				}
			}
			stack = stack[:base]
		}
		return nil
	}

	for _, n := range p.Nodes {
		switch n.Kind {
		case KindSeq:
			for i := 0; i+1 < len(n.Children); i++ {
				if err := g.addArrow(n.Children[i], n.Children[i+1]); err != nil {
					return nil, err
				}
			}
		case KindFire:
			if err := rewrite(n.FireType, n.Children[0], n.Children[1]); err != nil {
				return nil, err
			}
		}
	}
	if err := g.finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustRewrite is Rewrite for programs known to be well-formed; it panics on
// error and is intended for tests and examples.
func MustRewrite(p *Program) *Graph {
	g, err := Rewrite(p)
	if err != nil {
		panic(err)
	}
	return g
}
