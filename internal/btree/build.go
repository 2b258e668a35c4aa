package btree

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"silo/internal/record"
)

// Item is one key and the record it maps to, as Build takes them.
type Item struct {
	Key []byte
	Rec *record.Record
}

// Build fills an empty tree bottom-up from runs of items, the runs taken in
// order as one sequence whose keys must ascend strictly. The leaves are
// packed, every one full but the last, and each leaf's hint stands after its
// last key, so an ascending run appended later goes on packing (see
// insertSplit). The inner levels are built above them, each node given an
// even share of the level below, so no inner node has a single child. The
// shape counters are set, and the finished tree is published with one atomic
// store of the root: a concurrent reader sees the empty tree or all of it,
// and the empty root leaf's version is bumped, so a transaction that saw it
// empty fails node-set validation.
//
// Build copies the keys; the records become the tree's. Given no items it
// changes nothing. Otherwise it panics on a tree that holds a key or has
// split, and on keys out of order. Recovery builds every table with it,
// once, into trees nothing else writes yet.
func (t *Tree) Build(runs ...[]Item) {
	n, tails := 0, 0
	var prev probe
	for _, run := range runs {
		for _, it := range run {
			checkKey(it.Key)
			p := probeOf(it.Key)
			if prev.n > 0 && compare(&prev, &p) >= 0 {
				panic("btree: Build keys do not ascend")
			}
			prev = p
			if len(it.Key) > inlineBytes {
				tails += 1 + len(it.Key) - inlineBytes
			}
		}
		n += len(run)
	}
	if n == 0 {
		return
	}
	old := t.loadRoot()
	if old.level != 0 || t.count.Load() != 0 {
		panic("btree: Build on a tree that is not empty")
	}

	// The tree frees no node, so the leaves share one allocation, and so do
	// the suffixes of the keys longer than a slot's two words.
	leaves := make([]leaf, (n+fanout-1)/fanout)
	slab := make([]byte, tails)
	i := 0
	for _, run := range runs {
		for _, it := range run {
			lf := &leaves[i/fanout]
			lf.put(i%fanout, makeKey(it.Key, &slab))
			lf.vals[i%fanout] = unsafe.Pointer(it.Rec)
			i++
		}
	}
	level := make([]*node, len(leaves))
	lows := make([]skey, len(leaves)) // the smallest key under each node of level
	for j := range leaves {
		lf := &leaves[j]
		nk := min(fanout, n-j*fanout)
		lf.nkeys.Store(int32(nk))
		lf.hint = int32(nk)
		if j+1 < len(leaves) {
			lf.next = unsafe.Pointer(&leaves[j+1])
		}
		level[j], lows[j] = &lf.node, lf.get(0)
	}
	for len(level) > 1 {
		inners := make([]inner, (len(level)+fanout)/(fanout+1))
		up, upLows := make([]*node, len(inners)), make([]skey, len(inners))
		for g := range inners {
			in := &inners[g]
			in.level = level[0].level + 1
			lo, hi := g*len(level)/len(inners), (g+1)*len(level)/len(inners)
			for c := lo; c < hi; c++ {
				in.children[c-lo] = unsafe.Pointer(level[c])
				if c > lo {
					in.put(c-lo-1, lows[c])
				}
			}
			in.nkeys.Store(int32(hi - lo - 1))
			up[g], upLows[g] = &in.node, lows[lo]
		}
		level, lows = up, upLows
	}

	old.lock()
	t.count.Store(int64(n))
	t.leaves.Store(int64(len(leaves)))
	t.empty.Store(0)
	atomic.StorePointer(&t.root, unsafe.Pointer(level[0]))
	old.unlockBump()
}

// SplitKeys returns up to n−1 strictly ascending keys that cut the tree's
// leaves into n runs of about the same count, read from the inner nodes'
// separators: the checkpoint writer splits a table into its parts with them.
// A tree of fewer than n leaves yields fewer keys, one of a single leaf none.
// It runs beside writers; what they change meanwhile can only unbalance the
// runs, since any ascending keys split the key space.
func (t *Tree) SplitKeys(n int) [][]byte {
	leaves := int(t.leaves.Load())
	root := t.loadRoot()
	if n < 2 || root.level == 0 {
		return nil
	}
	var cuts []skey
	seen := 0 // leaves left of the walk
	var walk func(nd *node)
	walk = func(nd *node) {
		in := (*inner)(unsafe.Pointer(nd))
		var keys [fanout]skey
		var kids [fanout + 1]*node
		var nk int
		for spins := 0; ; spins++ {
			v := nd.stable()
			nk = clampKeys(in.nkeys.Load())
			for c := 0; c < nk; c++ {
				keys[c] = in.get(c)
			}
			for c := 0; c <= nk; c++ {
				kids[c] = in.child(c)
			}
			if nd.version.Load() == v {
				break
			}
			backoff(spins)
		}
		for c := 0; c <= nk && len(cuts) < n-1; c++ {
			if nd.level == 1 {
				seen++
			} else {
				walk(kids[c])
			}
			// Separator c is the boundary after the leaves seen so far.
			if c < nk && seen*n >= (len(cuts)+1)*leaves {
				cuts = append(cuts, keys[c])
			}
		}
	}
	walk(root)
	// Only a concurrent split can put them out of order.
	cmpKeys := func(a, b skey) int { pa, pb := a.probe(), b.probe(); return compare(&pa, &pb) }
	slices.SortFunc(cuts, cmpKeys)
	var out [][]byte
	for i := range cuts {
		if i == 0 || cmpKeys(cuts[i-1], cuts[i]) != 0 {
			out = append(out, cuts[i].appendTo(nil))
		}
	}
	return out
}
