package btree

import (
	"fmt"
	"unsafe"
)

// CheckInvariants walks the tree single-threadedly and verifies structural
// invariants: keys sorted within nodes, separators routing correctly, all
// leaves at level 0, the leaf chain agreeing with the in-order traversal,
// and the Shape counters agreeing with the walk. It exists for tests; it
// must not run concurrently with writers.
func (t *Tree) CheckInvariants() error {
	root := t.loadRoot()
	var leaves []*leaf
	if err := checkNode(root, nil, nil, &leaves); err != nil {
		return err
	}
	// Leaf chain must visit the same leaves in the same order. Start from
	// the leftmost leaf.
	if len(leaves) > 0 {
		lf := leaves[0]
		i := 0
		for lf != nil {
			if i >= len(leaves) {
				return fmt.Errorf("leaf chain longer than in-order traversal at index %d", i)
			}
			if lf != leaves[i] {
				return fmt.Errorf("leaf chain diverges from in-order traversal at index %d", i)
			}
			i++
			lf = lf.nextLeaf()
		}
		if i != len(leaves) {
			return fmt.Errorf("leaf chain has %d leaves, in-order traversal has %d", i, len(leaves))
		}
	}
	// Counts must match.
	walked := Shape{Leaves: len(leaves), Height: int(root.level) + 1}
	for _, lf := range leaves {
		nk := int(lf.nkeys.Load())
		walked.Keys += nk
		if nk == 0 {
			walked.EmptyLeaves++
		}
		if lf.hint < 0 || int(lf.hint) > nk {
			return fmt.Errorf("leaf %p hint %d outside its %d keys", lf, lf.hint, nk)
		}
	}
	if got := t.Shape(); got != walked {
		return fmt.Errorf("tree.Shape() %+v != walked %+v", got, walked)
	}
	return nil
}

// checkNode checks the subtree at n, whose keys must lie in [lo, hi) (nil
// for no bound).
func checkNode(n *node, lo, hi *probe, leaves *[]*leaf) error {
	if n.version.Load()&lockBit != 0 {
		return fmt.Errorf("node %p locked during single-threaded check", n)
	}
	nk := int(n.nkeys.Load())
	if nk < 0 || nk > fanout {
		return fmt.Errorf("node %p has invalid key count %d", n, nk)
	}
	var s *slots
	if n.level == 0 {
		s = &(*leaf)(unsafe.Pointer(n)).slots
	} else {
		s = &(*inner)(unsafe.Pointer(n)).slots
	}
	var kp [fanout]probe
	keys := kp[:nk]
	for i := range keys {
		k := s.get(i)
		if err := k.check(); err != nil {
			return fmt.Errorf("node %p slot %d: %v", n, i, err)
		}
		keys[i] = k.probe()
	}
	for i := nk; i < fanout; i++ {
		if s.suffixAt(i) != nil {
			return fmt.Errorf("node %p holds a suffix in vacated slot %d", n, i)
		}
	}
	key := func(i int) []byte { k := s.get(i); return k.appendTo(nil) }
	if n.level == 0 {
		lf := (*leaf)(unsafe.Pointer(n))
		for i := range keys {
			if i > 0 && compare(&keys[i-1], &keys[i]) >= 0 {
				return fmt.Errorf("leaf %p keys out of order at %d", lf, i)
			}
			if lo != nil && compare(&keys[i], lo) < 0 {
				return fmt.Errorf("leaf %p key %q below its bound", lf, key(i))
			}
			if hi != nil && compare(&keys[i], hi) >= 0 {
				return fmt.Errorf("leaf %p key %q above its bound", lf, key(i))
			}
			if lf.val(i) == nil {
				return fmt.Errorf("leaf %p has nil record at %d", lf, i)
			}
		}
		*leaves = append(*leaves, lf)
		return nil
	}
	in := (*inner)(unsafe.Pointer(n))
	if nk == 0 {
		return fmt.Errorf("inner node %p has no keys", in)
	}
	for i := 1; i < nk; i++ {
		if compare(&keys[i-1], &keys[i]) > 0 {
			return fmt.Errorf("inner %p separators out of order at %d", in, i)
		}
	}
	for i := 0; i <= nk; i++ {
		c := in.child(i)
		if c == nil {
			return fmt.Errorf("inner %p has nil child at %d", in, i)
		}
		if c.level != n.level-1 {
			return fmt.Errorf("inner %p child %d at level %d, want %d", in, i, c.level, n.level-1)
		}
		clo, chi := lo, hi
		if i > 0 {
			clo = &keys[i-1]
		}
		if i < nk {
			chi = &keys[i]
		}
		if err := checkNode(c, clo, chi, leaves); err != nil {
			return err
		}
	}
	return nil
}
