package btree

import (
	"bytes"
	"sort"
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
// split, and on keys out of order. Recovery loads a checkpoint with it,
// into trees nothing else writes yet.
func (t *Tree) Build(runs ...[]Item) {
	t.raceLock()
	defer t.raceUnlock()
	n := 0
	var prev []byte
	for _, run := range runs {
		for _, it := range run {
			checkKey(it.Key)
			if prev != nil && bytes.Compare(prev, it.Key) >= 0 {
				panic("btree: Build keys do not ascend")
			}
			prev = it.Key
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

	// The tree frees no node, so the leaves share one allocation.
	leaves := make([]leaf, (n+fanout-1)/fanout)
	i := 0
	for _, run := range runs {
		for _, it := range run {
			lf := &leaves[i/fanout]
			lf.keys[i%fanout].set(it.Key)
			lf.vals[i%fanout] = unsafe.Pointer(it.Rec)
			i++
		}
	}
	level := make([]*node, len(leaves))
	lows := make([][]byte, len(leaves)) // the smallest key under each node of level
	for j := range leaves {
		lf := &leaves[j]
		nk := min(fanout, n-j*fanout)
		lf.nkeys.Store(int32(nk))
		lf.hint = int32(nk)
		if j+1 < len(leaves) {
			lf.next = unsafe.Pointer(&leaves[j+1])
		}
		level[j], lows[j] = &lf.node, lf.keys[0].get()
	}
	for len(level) > 1 {
		inners := make([]inner, (len(level)+fanout)/(fanout+1))
		up, upLows := make([]*node, len(inners)), make([][]byte, len(inners))
		for g := range inners {
			in := &inners[g]
			in.level = level[0].level + 1
			lo, hi := g*len(level)/len(inners), (g+1)*len(level)/len(inners)
			for c := lo; c < hi; c++ {
				in.children[c-lo] = unsafe.Pointer(level[c])
				if c > lo {
					in.keys[c-lo-1].set(lows[c])
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
	t.raceRLock()
	defer t.raceRUnlock()
	leaves := int(t.leaves.Load())
	root := t.loadRoot()
	if n < 2 || root.level == 0 {
		return nil
	}
	var out [][]byte
	seen := 0 // leaves left of the walk
	var walk func(nd *node)
	walk = func(nd *node) {
		in := (*inner)(unsafe.Pointer(nd))
		var keys [fanout]ikey
		var kids [fanout + 1]*node
		var nk int
		for spins := 0; ; spins++ {
			v := nd.stable()
			nk = clampKeys(in.nkeys.Load())
			copy(keys[:nk], in.keys[:nk])
			for c := 0; c <= nk; c++ {
				kids[c] = in.child(c)
			}
			if nd.version.Load() == v {
				break
			}
			backoff(spins)
		}
		for c := 0; c <= nk && len(out) < n-1; c++ {
			if nd.level == 1 {
				seen++
			} else {
				walk(kids[c])
			}
			// Separator c is the boundary after the leaves seen so far.
			if c < nk && seen*n >= (len(out)+1)*leaves {
				out = append(out, append([]byte(nil), keys[c].get()...))
			}
		}
	}
	walk(root)
	// Only a concurrent split can put them out of order.
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	uniq := out[:0]
	for _, k := range out {
		if len(uniq) == 0 || !bytes.Equal(uniq[len(uniq)-1], k) {
			uniq = append(uniq, k)
		}
	}
	return uniq
}
