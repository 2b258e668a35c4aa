package btree

import (
	"slices"
	"sync"
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
// The leaves are filled, and the keys checked as they go in, in up to
// workers stretches of whole leaves at once, each on its own goroutine; a
// stretch is at least buildStretch leaves, so a small tree is built on the
// caller's.
//
// Build copies the keys; the records become the tree's. Given no items it
// changes nothing. Otherwise it panics on a tree that holds a key or has
// split, and on keys out of order. Recovery builds every table with it,
// once, into trees nothing else writes yet.
func (t *Tree) Build(workers int, runs ...[]Item) {
	n := 0
	for _, run := range runs {
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
	// each stretch's suffixes of the keys longer than a slot's two words,
	// each stretch's suffix blocks and each inner level's.
	leaves := make([]leaf, (n+fanout-1)/fanout)
	level := make([]*node, len(leaves))
	lows := make([]skey, len(leaves)) // the smallest key under each node of level
	parts := max(1, min(workers, len(leaves)/buildStretch))
	sts := make([]stretch, parts)
	for s := range sts {
		sts[s].leaf0 = s * len(leaves) / parts
		sts[s].runs = cut(runs, sts[s].leaf0*fanout, min((s+1)*len(leaves)/parts*fanout, n))
	}
	parallel(parts, func(s int) {
		var prev []byte
		if s > 0 {
			last := sts[s-1].runs[len(sts[s-1].runs)-1]
			prev = last[len(last)-1].Key
		}
		sts[s].fill(leaves, n, prev, level, lows)
	})
	for _, st := range sts {
		if st.bad {
			checkKey(st.badKey)
			panic("btree: Build keys do not ascend")
		}
	}
	for len(level) > 1 {
		inners := make([]inner, (len(level)+fanout)/(fanout+1))
		up, upLows := make([]*node, len(inners)), make([]skey, len(inners))
		long := 0 // no node of the level holds more long separators than this
		for _, k := range lows {
			if k.sfx != nil {
				long++
			}
		}
		blks := make([]suffixes, min(long, len(inners)))
		for g := range inners {
			in := &inners[g]
			in.level = level[0].level + 1
			lo, hi := g*len(level)/len(inners), (g+1)*len(level)/len(inners)
			for c := lo; c < hi; c++ {
				in.children[c-lo] = unsafe.Pointer(level[c])
				if c == lo {
					continue
				}
				if lows[c].sfx != nil && in.sfx == nil {
					in.sfx, blks = unsafe.Pointer(&blks[0]), blks[1:]
				}
				in.put(c-lo-1, lows[c])
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

// buildStretch is the fewest leaves Build fills on a goroutine of their
// own: about 4 000 keys.
const buildStretch = 256

// stretch is the items of a run of whole leaves, which Build fills on one
// goroutine.
type stretch struct {
	leaf0  int      // its first leaf
	runs   [][]Item // its items: pieces of Build's runs
	bad    bool     // a key out of range or out of order …
	badKey []byte   // … the first one
}

// cut returns items lo … hi−1 of runs, taken as one sequence, as the
// non-empty pieces of the runs that hold them.
func cut(runs [][]Item, lo, hi int) [][]Item {
	var out [][]Item
	for _, run := range runs {
		if lo < len(run) && hi > 0 {
			out = append(out, run[max(lo, 0):min(hi, len(run))])
		}
		lo, hi = lo-len(run), hi-len(run)
	}
	return out
}

// fill lays the stretch's items into its leaves, checking each key's
// length and its order after the one before (prev for the first: the key
// before the stretch, nil for the first stretch), and finishes each leaf:
// its count, its hint, its link to the next, and its entries in level and
// lows. n is the items of every stretch. It stops at a bad key. Nothing
// reaches the leaves but through the root Build publishes, so they take
// plain stores, and a leaf whose keys are all short gets no suffix block.
// The stretch's suffixes share one allocation, and so do its leaves'
// blocks.
func (st *stretch) fill(leaves []leaf, n int, prev []byte, level []*node, lows []skey) {
	tails, blocks, last := 0, 0, -1
	i := st.leaf0 * fanout
	for _, run := range st.runs {
		for _, it := range run {
			if len(it.Key) > inlineBytes {
				tails += 1 + len(it.Key) - inlineBytes
				if i/fanout != last {
					blocks, last = blocks+1, i/fanout
				}
			}
			i++
		}
	}
	slab, blks := make([]byte, tails), make([]suffixes, blocks)
	p := probeOf(prev)
	i = st.leaf0 * fanout
	for _, run := range st.runs {
		for _, it := range run {
			q := probeOf(it.Key)
			if q.n == 0 || q.n > MaxKeyLen || p.n > 0 && compare(&p, &q) >= 0 {
				st.bad, st.badKey = true, it.Key
				return
			}
			p = q
			lf, j := &leaves[i/fanout], i%fanout
			lf.w0[j], lf.w1[j], lf.n[j] = q.w0, q.w1, uint8(q.n)
			if q.n > inlineBytes {
				if lf.sfx == nil {
					lf.sfx, blks = unsafe.Pointer(&blks[0]), blks[1:]
				}
				(*suffixes)(lf.sfx)[j] = newSuffix(q.tail, &slab)
			}
			lf.vals[j] = unsafe.Pointer(it.Rec)
			i++
		}
	}
	for j := st.leaf0; j*fanout < i; j++ {
		lf := &leaves[j]
		nk := min(fanout, n-j*fanout)
		lf.nkeys.Store(int32(nk))
		lf.hint = int32(nk)
		if j+1 < len(leaves) {
			lf.next = unsafe.Pointer(&leaves[j+1])
		}
		level[j], lows[j] = &lf.node, lf.get(0)
	}
}

// parallel runs fn(0) … fn(n−1), the last on the caller's goroutine and
// the others each on its own, and waits for them all.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	fn(n - 1)
	wg.Wait()
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
