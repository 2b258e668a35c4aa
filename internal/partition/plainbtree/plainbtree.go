// Package plainbtree is a single-threaded B+-tree: the same structure as
// internal/btree with all concurrency control removed, exactly as §5.4
// describes Partitioned-Store's trees ("we remove the concurrency control
// mechanisms in place in the B+-tree" and the record-level concurrency
// control). Mutual exclusion is provided externally by whole-partition
// locks.
package plainbtree

import "bytes"

const fanout = 16

type node struct {
	level int32
	nkeys int
}

type inner struct {
	node
	keys     [fanout][]byte
	children [fanout + 1]any // *inner or *leaf
}

type leaf struct {
	node
	keys [fanout][]byte
	vals [fanout][]byte
	next *leaf
}

// Tree is an ordered map from byte-string keys to byte-string values. It
// must be protected by an external lock.
type Tree struct {
	root  any
	count int
}

// New returns an empty tree.
func New() *Tree { return &Tree{root: &leaf{}} }

// Len returns the number of keys.
func (t *Tree) Len() int { return t.count }

func (t *Tree) findLeaf(key []byte) (*leaf, []*inner, []int) {
	var path []*inner
	var idxs []int
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			return v, path, idxs
		case *inner:
			i := 0
			for i < v.nkeys && bytes.Compare(v.keys[i], key) <= 0 {
				i++
			}
			path = append(path, v)
			idxs = append(idxs, i)
			n = v.children[i]
		}
	}
}

func (lf *leaf) search(key []byte) (int, bool) {
	for i := 0; i < lf.nkeys; i++ {
		switch bytes.Compare(lf.keys[i], key) {
		case 0:
			return i, true
		case 1:
			return i, false
		}
	}
	return lf.nkeys, false
}

// Get returns the value for key, or nil.
func (t *Tree) Get(key []byte) []byte {
	lf, _, _ := t.findLeaf(key)
	if i, ok := lf.search(key); ok {
		return lf.vals[i]
	}
	return nil
}

// Put stores a copy of value under key, inserting or overwriting.
func (t *Tree) Put(key, value []byte) {
	lf, path, idxs := t.findLeaf(key)
	i, ok := lf.search(key)
	if ok {
		if len(lf.vals[i]) == len(value) {
			copy(lf.vals[i], value)
		} else {
			lf.vals[i] = append([]byte(nil), value...)
		}
		return
	}
	t.count++
	k := append([]byte(nil), key...)
	v := append([]byte(nil), value...)
	if lf.nkeys < fanout {
		lf.insertAt(i, k, v)
		return
	}
	// Split the leaf.
	right := &leaf{}
	mid := fanout / 2
	copy(right.keys[:], lf.keys[mid:])
	copy(right.vals[:], lf.vals[mid:])
	right.nkeys = fanout - mid
	for j := mid; j < fanout; j++ {
		lf.keys[j], lf.vals[j] = nil, nil
	}
	lf.nkeys = mid
	right.next = lf.next
	lf.next = right
	sep := right.keys[0]
	if bytes.Compare(key, sep) >= 0 {
		j, _ := right.search(key)
		right.insertAt(j, k, v)
	} else {
		j, _ := lf.search(key)
		lf.insertAt(j, k, v)
	}
	t.insertSep(path, idxs, sep, right)
}

func (lf *leaf) insertAt(i int, k, v []byte) {
	copy(lf.keys[i+1:lf.nkeys+1], lf.keys[i:lf.nkeys])
	copy(lf.vals[i+1:lf.nkeys+1], lf.vals[i:lf.nkeys])
	lf.keys[i], lf.vals[i] = k, v
	lf.nkeys++
}

// insertSep links (sep, right) into the parent chain, splitting upward.
func (t *Tree) insertSep(path []*inner, idxs []int, sep []byte, right any) {
	for p := len(path) - 1; ; p-- {
		if p < 0 {
			level := int32(1)
			if in, ok := right.(*inner); ok {
				level = in.level + 1
			}
			nr := &inner{}
			nr.level = level
			nr.keys[0] = sep
			nr.children[0] = t.root
			nr.children[1] = right
			nr.nkeys = 1
			t.root = nr
			return
		}
		parent := path[p]
		i := idxs[p]
		if parent.nkeys < fanout {
			copy(parent.keys[i+1:parent.nkeys+1], parent.keys[i:parent.nkeys])
			copy(parent.children[i+2:parent.nkeys+2], parent.children[i+1:parent.nkeys+1])
			parent.keys[i] = sep
			parent.children[i+1] = right
			parent.nkeys++
			return
		}
		// Split the parent. Insert position is idxs[p]; do the textbook
		// "virtual insert then split" by materializing into scratch slices.
		var ks [fanout + 1][]byte
		var cs [fanout + 2]any
		copy(ks[:i], parent.keys[:i])
		ks[i] = sep
		copy(ks[i+1:], parent.keys[i:parent.nkeys])
		copy(cs[:i+1], parent.children[:i+1])
		cs[i+1] = right
		copy(cs[i+2:], parent.children[i+1:parent.nkeys+1])

		total := parent.nkeys + 1 // keys after virtual insert
		mid := total / 2
		promoted := ks[mid]

		pr := &inner{}
		pr.level = parent.level
		copy(pr.keys[:], ks[mid+1:total])
		copy(pr.children[:], cs[mid+1:total+1])
		pr.nkeys = total - mid - 1

		for j := range parent.keys {
			parent.keys[j] = nil
		}
		for j := range parent.children {
			parent.children[j] = nil
		}
		copy(parent.keys[:], ks[:mid])
		copy(parent.children[:], cs[:mid+1])
		parent.nkeys = mid

		sep, right = promoted, pr
	}
}

// Scan visits keys in [lo, hi) in order (hi nil = +∞).
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) {
	lf, _, _ := t.findLeaf(lo)
	for lf != nil {
		for i := 0; i < lf.nkeys; i++ {
			k := lf.keys[i]
			if bytes.Compare(k, lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return
			}
			if !fn(k, lf.vals[i]) {
				return
			}
		}
		lf = lf.next
	}
}
