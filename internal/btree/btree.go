// Package btree implements the Masstree-inspired concurrent B+-tree
// underlying every Silo index (§3, §4.6 of the paper).
//
// Design, following Masstree [Mao et al., Eurosys 2012]:
//
//   - Read operations never write to shared memory. Readers coordinate with
//     writers using per-node version numbers and fence-based synchronization:
//     a reader samples a node's version (spinning while the lock bit is set),
//     reads the node's contents, and re-checks the version; a change forces a
//     retry. Descent re-validates the parent after capturing the child's
//     version, so a reader can never act on a stale routing decision.
//
//   - Writers lock individual nodes (the version word's lock bit). Inserts
//     take an optimistic fast path (upgrade the leaf's observed version to a
//     lock with one CAS); splits fall back to top-down hand-over-hand
//     latching that releases ancestors as soon as a child is split-safe.
//
//   - Structural modification bumps the version of every node involved,
//     which is exactly the property Silo's node-set validation (§4.6) relies
//     on to detect phantoms: a committed scan re-checks the versions of all
//     leaves it observed.
//
//   - Leaves are chained for range scans. Nodes are never merged on
//     underflow (Masstree practice); deletion leaves empty leaves in place.
//     Because splits never retire nodes and merges never happen, tree nodes
//     themselves generate no garbage; record versions are the only garbage,
//     handled by the epoch GC in internal/core.
//
//   - A full leaf splits where its inserts say a run is going (insertSplit).
//     An insert into the slot right after the leaf's previous insert
//     continues an ascending run, and the split falls at the insertion
//     point: the run keeps its leaf and the keys beyond it move right
//     (InnoDB's last-insert rule). When the run owns the leaf's tail that
//     moves nothing and the new key starts the right sibling — Masstree's
//     sequential-insert rule, here for any leaf, because TPC-C's runs end
//     at district boundaries inside the tree, not at its right edge.
//     Anything else splits in half. Ascending runs therefore leave full
//     leaves behind them, whether one run or many interleaved, and uniform
//     random inserts, which hit the slot by chance once in seventeen, keep
//     their fill to within 0.01. The "previous insert" is a per-leaf hint,
//     and only a hint: writers set and read it under the leaf lock,
//     optimistic readers never look at it, and a stale value picks a worse
//     split point — it costs fill, never correctness. Every split still
//     bumps both leaves and reports the right one Created, including the
//     split that moves no key: the left leaf's range shrank all the same.
//
//   - Recovery does not insert key by key: Build lays the sorted rows it
//     recovers (checkpoint and log merged) into packed leaves, builds the inner levels above them and
//     publishes the root with one store. SplitKeys reads the inner
//     separators back out, so the checkpoint writer cuts each table where
//     its leaves are, whatever its keys look like.
//
// Keys are byte strings up to MaxKeyLen bytes, kept in slot form (keys.go):
// per node, a word array of every key's bytes 0–7, big-endian and
// zero-padded, which a search reads first — two cache lines for sixteen
// keys — a second word array for bytes 8–15, and the key lengths.
// bytes.Compare runs only on a 16-byte tie. The rest of a longer key is an
// immutable suffix allocation that carries its own length, reached through
// the node's suffix block — one pointer per slot, allocated under the node's
// lock with the first long key the node holds and kept for life, as
// Masstree keeps key suffixes out of line. A node of short keys has no
// block, and a leaf with its records is 440 bytes (an inner node with its
// children 432), Go's 448-byte size class. Racy (validated-after) readers
// load the block pointer and then the slot's suffix pointer atomically and
// read only inside the one allocation it points to, as far as that
// allocation's own length says; a key length and suffix torn from
// different keys (or a long key's length before its node's block is
// published) are memory-safe and rejected by the node-version re-check.
// Values are *record.Record pointers stored with atomic loads/stores.
//
// The validated slot reads (slots.get, slots.cmpAt) are //go:norace, so
// race builds run this protocol and check everything else (package race).
package btree

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"silo/internal/prefetch"
	"silo/internal/record"
)

const (
	// MaxKeyLen is the largest supported key, the bound every layer above
	// checks. The paper treats all keys as strings; TPC-C's widest
	// composite key is well under this.
	MaxKeyLen = 62

	// fanout is the maximum number of keys per node: the first word of
	// every key fills two cache lines.
	fanout = 16
)

// Version-word layout: bit 0 is the lock bit; the remaining bits form a
// modification counter incremented by every structural change.
const (
	lockBit    uint64 = 1
	versionInc uint64 = 2
)

// node is the header shared by inner nodes and leaves.
type node struct {
	version atomic.Uint64
	nkeys   atomic.Int32
	level   int32 // 0 for leaves; immutable after creation
}

// Node is the opaque handle exposed for node-set tracking. The pointer
// identifies the node; Version samples its current version word.
type Node = node

// Version returns the node's current version word, including the lock bit
// if a writer holds it. Silo's Phase 2 treats a locked node like a changed
// one, so comparing this raw value against a stable version recorded during
// execution is exactly the paper's check.
func (n *node) Version() uint64 { return n.version.Load() }

// stable spins until the node is unlocked and returns the version.
func (n *node) stable() uint64 {
	for spins := 0; ; spins++ {
		v := n.version.Load()
		if v&lockBit == 0 {
			return v
		}
		backoff(spins)
	}
}

// tryUpgrade atomically converts an observed stable version into a lock,
// failing if the node changed or is locked.
func (n *node) tryUpgrade(v uint64) bool {
	return n.version.CompareAndSwap(v, v|lockBit)
}

// lock spins until it owns the node's lock bit.
func (n *node) lock() {
	for spins := 0; ; spins++ {
		v := n.version.Load()
		if v&lockBit == 0 && n.version.CompareAndSwap(v, v|lockBit) {
			return
		}
		backoff(spins)
	}
}

// unlockBump releases the lock and increments the version counter,
// signalling a structural modification to concurrent readers and to
// transactions validating node-sets.
func (n *node) unlockBump() {
	n.version.Store((n.version.Load() + versionInc) &^ lockBit)
}

// unlock releases the lock without changing the version (no modification).
func (n *node) unlock() {
	n.version.Store(n.version.Load() &^ lockBit)
}

type inner struct {
	node
	slots
	children [fanout + 1]unsafe.Pointer // *node
}

type leaf struct {
	node
	slots
	vals [fanout]unsafe.Pointer // *record.Record
	next unsafe.Pointer         // *leaf
	hint int32                  // slot after the last insert; see insertSplit
}

func (in *inner) child(i int) *node {
	return (*node)(atomic.LoadPointer(&in.children[i]))
}

func (lf *leaf) val(i int) *record.Record {
	return (*record.Record)(atomic.LoadPointer(&lf.vals[i]))
}

func (lf *leaf) nextLeaf() *leaf {
	return (*leaf)(atomic.LoadPointer(&lf.next))
}

// clampKeys bounds a racily-read key count to the node's capacity.
func clampKeys(n int32) int {
	if n < 0 {
		return 0
	}
	if n > fanout {
		return fanout
	}
	return int(n)
}

// search returns the child index to descend for p: the number of
// separators ≤ p (children[i] covers [keys[i-1], keys[i])).
func (in *inner) search(p *probe) int {
	nk := clampKeys(in.nkeys.Load())
	i := 0
	for i < nk && in.cmpAt(i, p) <= 0 {
		i++
	}
	return i
}

// search returns the position of the first slot ≥ p and whether it equals
// p.
func (lf *leaf) search(p *probe) (int, bool) {
	nk := clampKeys(lf.nkeys.Load())
	for i := 0; i < nk; i++ {
		switch lf.cmpAt(i, p) {
		case 0:
			return i, true
		case 1:
			return i, false
		}
	}
	return nk, false
}

// VersionChange describes a node whose version was bumped by an insert, so
// the transaction layer can implement §4.6's node-set maintenance: an insert
// by the current transaction updates matching node-set entries from Old to
// New rather than causing an abort; Created nodes must be added to the
// node-set so the scanned key range stays covered after a split.
type VersionChange struct {
	Node    *Node
	Old     uint64
	New     uint64
	Created bool
}

// Tree is a concurrent B+-tree mapping byte-string keys to records.
type Tree struct {
	root  unsafe.Pointer // *node
	count atomic.Int64
	// Shape counters behind Shape: leaves moves only in a split, empty only
	// when a leaf's key count crosses zero.
	leaves atomic.Int64
	empty  atomic.Int64
}

// New returns an empty tree.
func New() *Tree {
	t := &Tree{}
	atomic.StorePointer(&t.root, unsafe.Pointer(&leaf{}))
	t.leaves.Store(1)
	t.empty.Store(1)
	return t
}

// Len returns the number of keys in the tree (including keys whose records
// are in the absent state; logical liveness is the transaction layer's
// concern).
func (t *Tree) Len() int { return int(t.count.Load()) }

// Shape is a tree's size and occupancy, read from counters the write paths
// maintain; taken while writers run it is a monitoring view, not a cut.
type Shape struct {
	Keys, Leaves, EmptyLeaves, Height int
}

// Fill is the fraction of leaf slots holding a key.
func (s Shape) Fill() float64 { return float64(s.Keys) / float64(s.Leaves*fanout) }

// Shape returns the tree's current shape in O(1).
func (t *Tree) Shape() Shape {
	return Shape{
		Keys:        t.Len(),
		Leaves:      int(t.leaves.Load()),
		EmptyLeaves: int(t.empty.Load()),
		Height:      int(t.loadRoot().level) + 1,
	}
}

func (t *Tree) loadRoot() *node {
	return (*node)(atomic.LoadPointer(&t.root))
}

func checkKey(key []byte) {
	if len(key) > MaxKeyLen {
		panic(fmt.Sprintf("btree: key length %d exceeds MaxKeyLen %d", len(key), MaxKeyLen))
	}
	if len(key) == 0 {
		panic("btree: empty key")
	}
}

// descend walks optimistically from the root to the leaf responsible for
// p, returning the leaf and its stable version.
func (t *Tree) descend(p *probe) (*leaf, uint64) {
retry:
	n := t.loadRoot()
	v := n.stable()
	if t.loadRoot() != n {
		goto retry
	}
	for n.level > 0 {
		in := (*inner)(unsafe.Pointer(n))
		idx := in.search(p)
		c := in.child(idx)
		if c == nil {
			// Torn read of nkeys/keys; the validation below would catch it,
			// but we cannot stabilize a nil child.
			if n.version.Load() != v {
				goto retry
			}
			goto retry
		}
		cv := c.stable()
		if n.version.Load() != v {
			goto retry
		}
		n, v = c, cv
	}
	return (*leaf)(unsafe.Pointer(n)), v
}

// Get looks up key. It returns the record (nil if the key is not present),
// the leaf that does or would contain the key, and that leaf's validated
// version — the (node, version) pair a transaction records in its node-set
// when the key is missing (§4.6).
func (t *Tree) Get(key []byte) (rec *record.Record, n *Node, version uint64) {
	checkKey(key)
	p := probeOf(key)
	for spins := 0; ; spins++ {
		lf, v := t.descend(&p)
		idx, eq := lf.search(&p)
		if eq {
			rec = lf.val(idx)
		} else {
			rec = nil
		}
		if lf.version.Load() == v {
			if eq && rec == nil {
				// torn val read; retry
				backoff(spins)
				continue
			}
			return rec, &lf.node, v
		}
		backoff(spins)
	}
}

// GetBatch looks up keys — which must be sorted ascending — calling fn for
// each in order with exactly what Get would have returned for it: the
// record (nil if the key is not present) and the leaf and validated leaf
// version that do or would contain the key. fn returning false stops the
// batch. The win over repeated Get calls is one descent per leaf run
// instead of one per key: after descending for a key, every following key
// that is provably routed to the same leaf (≤ the leaf's last key, whose
// separator range must therefore contain it) is served from that leaf
// under a single version validation. Sorted primary-key resolution of
// large index scans hits long runs in practice, since entries of one
// secondary range tend to cluster in primary-key space.
//
// fn must not re-enter the tree (the transaction layer only records the
// observation and copies the value out).
func (t *Tree) GetBatch(keys [][]byte, fn func(i int, rec *record.Record, n *Node, version uint64) bool) {
	for _, k := range keys {
		checkKey(k)
	}
	// recs[j] holds the record found for keys[i+j] of the current leaf run
	// (nil for absent); hits remembers whether the slot search matched, to
	// distinguish "absent" from a torn value read that must retry.
	// A leaf holds fanout keys, so the buffers are leaf-sized and live on
	// the stack; duplicate keys that would overflow them end the run.
	var recs [fanout]*record.Record
	var hits [fanout]bool
	i := 0
	for i < len(keys) {
		var lf *leaf
		var v uint64
		var run int
		first := probeOf(keys[i])
	retry:
		for spins := 0; ; spins++ {
			lf, v = t.descend(&first)
			// The run extends while keys stay ≤ the leaf's last key: the
			// leaf's separator range contains its own keys, so any sorted
			// key between the descent key and the last key routes here.
			// The last key is read under the same version validation as
			// the slots, so a concurrent split cannot extend a run into
			// keys the leaf no longer owns.
			nk := clampKeys(lf.nkeys.Load())
			for run = 0; run < fanout && i+run < len(keys); run++ {
				p := first
				if run > 0 {
					if p = probeOf(keys[i+run]); nk == 0 || lf.cmpAt(nk-1, &p) < 0 {
						break
					}
				}
				idx, eq := lf.search(&p)
				recs[run], hits[run] = nil, eq
				if eq {
					recs[run] = lf.val(idx)
				}
			}
			if lf.version.Load() != v {
				backoff(spins)
				continue retry
			}
			for j := 0; j < run; j++ {
				if hits[j] && recs[j] == nil {
					// Torn value slot; retry the whole leaf run.
					backoff(spins)
					continue retry
				}
			}
			break
		}
		for j := 0; j < run; j++ {
			if !fn(i+j, recs[j], &lf.node, v) {
				return
			}
		}
		i += run
	}
}

// prefetchGroup is how many keys Prefetch descends in lockstep: a
// pipelined chain's worth, few enough that the cursors live on the stack.
const prefetchGroup = 16

// Prefetch asks the CPU to bring close what lookups of keys will read —
// each key's path of nodes, its leaf slot, its record and the record's
// value — without waiting for any of it (group prefetching, as Masstree
// hides DRAM latency by prefetching nodes). It descends the keys
// together, a level at a time: it searches every key's node, which the
// level above asked for, and asks for each key's child, so a level's k
// misses overlap and k lookups wait about one memory latency per level,
// not k. At the leaves it asks for each present key's record, then for
// the record's value buffer.
//
// The pass is a pure hint: it writes nothing and returns nothing. It reads
// nodes only as optimistic readers do — atomic loads and the validated
// slot reads — and validates nothing, since a torn read costs a useless
// prefetch, never a wrong answer. Keys no lookup accepts are skipped.
func (t *Tree) Prefetch(keys [][]byte) {
	for len(keys) > 0 {
		n := min(len(keys), prefetchGroup)
		t.prefetchGroup(keys[:n])
		keys = keys[n:]
	}
}

func (t *Tree) prefetchGroup(keys [][]byte) {
	var (
		ps   [prefetchGroup]probe
		ns   [prefetchGroup]*node
		idx  [prefetchGroup]int
		recs [prefetchGroup]*record.Record
	)
	root := t.loadRoot()
	for i, k := range keys {
		if len(k) > 0 && len(k) <= MaxKeyLen {
			ps[i], ns[i] = probeOf(k), root
		}
	}
	// A child is always one level below its parent, so the cursors, which
	// all start at one root, reach the leaves together; a nil child (a
	// slot a split just cleared) ends its key's descent.
	for level := root.level; level > 0; level-- {
		for i := range keys {
			if ns[i] != nil {
				in := (*inner)(unsafe.Pointer(ns[i]))
				idx[i] = in.search(&ps[i])
				prefetch.Line(uintptr(unsafe.Pointer(&in.children[idx[i]])))
			}
		}
		for i := range keys {
			if ns[i] != nil {
				ns[i] = (*inner)(unsafe.Pointer(ns[i])).child(idx[i])
				prefetchSearch(ns[i])
			}
		}
	}
	for i := range keys {
		if ns[i] != nil {
			lf := (*leaf)(unsafe.Pointer(ns[i]))
			if j, eq := lf.search(&ps[i]); eq {
				idx[i] = j
				prefetch.Line(uintptr(unsafe.Pointer(&lf.vals[j])))
			} else {
				ns[i] = nil
			}
		}
	}
	for i := range keys {
		if ns[i] != nil {
			if recs[i] = (*leaf)(unsafe.Pointer(ns[i])).val(idx[i]); recs[i] != nil {
				// Its TID word and its data pointer, which a 24-byte record
				// may keep on two lines.
				prefetch.Line(recs[i].Addr())
				prefetch.Line(recs[i].Addr() + 16)
			}
		}
	}
	for _, r := range recs[:len(keys)] {
		if r != nil {
			if b := r.BufAddr(); b != 0 {
				// The header and a short value's bytes.
				prefetch.Line(b)
				prefetch.Line(b + 64)
			}
		}
	}
}

// prefetchSearch asks for the lines a search of n reads: the version and
// key count, and the first key words of all sixteen slots.
func prefetchSearch(n *node) {
	if n == nil {
		return
	}
	p := uintptr(unsafe.Pointer(n))
	prefetch.Line(p)
	prefetch.Line(p + 64)
	prefetch.Line(p + 128)
}

// InsertIfAbsent maps key to rec unless key is already present. It returns
// the record now in the tree (rec on success, the pre-existing record
// otherwise), whether the insert happened, and the version changes of every
// node the insert structurally modified.
func (t *Tree) InsertIfAbsent(key []byte, rec *record.Record) (cur *record.Record, inserted bool, changes []VersionChange) {
	checkKey(key)
	p := probeOf(key)
	var k skey
	for spins := 0; ; spins++ {
		lf, v := t.descend(&p)
		idx, eq := lf.search(&p)
		if eq {
			existing := lf.val(idx)
			if lf.version.Load() == v && existing != nil {
				return existing, false, nil
			}
			backoff(spins)
			continue
		}
		if k.n == 0 {
			k = makeKey(key) // before any lock: a long key allocates its suffix
		}
		nk := int(lf.nkeys.Load())
		if nk < fanout {
			// Fast path: room in the leaf; upgrade our observed version.
			if !lf.tryUpgrade(v) {
				backoff(spins)
				continue
			}
			// Re-search under the lock: the upgrade guarantees no change
			// since v, so idx is still right, but recompute defensively.
			idx, eq = lf.search(&p)
			if eq {
				existing := lf.val(idx)
				lf.unlock()
				return existing, false, nil
			}
			t.insertAt(lf, idx, k, rec)
			newV := (lf.version.Load() + versionInc) &^ lockBit
			lf.unlockBump()
			return rec, true, []VersionChange{{Node: &lf.node, Old: v, New: newV}}
		}
		// Leaf full: pessimistic split path.
		cur, inserted, changes, ok := t.insertSplit(&p, k, rec)
		if ok {
			return cur, inserted, changes
		}
		backoff(spins)
	}
}

// insertAt shifts slots right and installs (k, rec) at position idx,
// leaving the leaf's hint on the slot after it. Caller holds the leaf lock
// and has verified there is room.
func (t *Tree) insertAt(lf *leaf, idx int, k skey, rec *record.Record) {
	nk := int(lf.nkeys.Load())
	for i := nk; i > idx; i-- {
		lf.put(i, lf.get(i-1))
		atomic.StorePointer(&lf.vals[i], atomic.LoadPointer(&lf.vals[i-1]))
	}
	lf.put(idx, k)
	atomic.StorePointer(&lf.vals[idx], unsafe.Pointer(rec))
	lf.nkeys.Store(int32(nk + 1))
	lf.hint = int32(idx + 1)
	if nk == 0 {
		t.empty.Add(-1)
	}
	t.count.Add(1)
}

// insertSplit handles inserts that require splitting. It locks the path
// from the root down, releasing ancestors as soon as a child has room for a
// promoted separator, then splits bottom-up. Returns ok=false if the
// descent raced with a root change and must be retried.
func (t *Tree) insertSplit(p *probe, k skey, rec *record.Record) (cur *record.Record, inserted bool, changes []VersionChange, ok bool) {
	n := t.loadRoot()
	n.lock()
	if t.loadRoot() != n {
		n.unlock()
		return nil, false, nil, false
	}
	// locked holds the chain of locked nodes, outermost first. Entry i+1 is
	// the child of entry i along the descent. preVersions records each
	// locked node's version at lock time (lock bit set; strip it).
	locked := []*node{n}
	preV := []uint64{n.version.Load() &^ lockBit}
	for n.level > 0 {
		in := (*inner)(unsafe.Pointer(n))
		idx := in.search(p)
		c := in.child(idx)
		c.lock()
		if int(c.nkeys.Load()) < fanout {
			// Child cannot split further up: release all ancestors.
			for _, a := range locked {
				a.unlock()
			}
			locked = locked[:0]
			preV = preV[:0]
		}
		locked = append(locked, c)
		preV = append(preV, c.version.Load()&^lockBit)
		n = c
	}
	lf := (*leaf)(unsafe.Pointer(n))
	idx, eq := lf.search(p)
	if eq {
		existing := lf.val(idx)
		for _, a := range locked {
			a.unlock()
		}
		return existing, false, nil, true
	}
	if int(lf.nkeys.Load()) < fanout {
		// A concurrent remove made room; no split after all.
		t.insertAt(lf, idx, k, rec)
		for i, a := range locked {
			if a == n {
				changes = append(changes, VersionChange{Node: a, Old: preV[i], New: (a.version.Load() + versionInc) &^ lockBit})
				a.unlockBump()
			} else {
				a.unlock()
			}
		}
		return rec, true, changes, true
	}

	// Split the leaf: keys[mid:] move to a fresh (locked) right sibling. A
	// key landing in the slot right after the leaf's previous insert
	// continues an ascending run, so the split falls at the insertion point:
	// the run keeps the left leaf and goes on filling it, the foreign keys
	// beyond it move right — and when there are none (the run owns the
	// leaf's tail) nothing moves and the new key starts the right sibling.
	// Anything else halves.
	mid := fanout / 2
	if idx > 0 && idx == int(lf.hint) {
		mid = idx
	}
	right := &leaf{}
	right.version.Store(lockBit)
	t.leaves.Add(1)
	for i := mid; i < fanout; i++ {
		right.put(i-mid, lf.get(i))
		atomic.StorePointer(&right.vals[i-mid], atomic.LoadPointer(&lf.vals[i]))
		atomic.StorePointer(&lf.vals[i], nil)
		lf.drop(i)
	}
	right.nkeys.Store(int32(fanout - mid))
	lf.nkeys.Store(int32(mid))
	atomic.StorePointer(&right.next, atomic.LoadPointer(&lf.next))
	atomic.StorePointer(&lf.next, unsafe.Pointer(right))
	lf.hint = 0
	if mid == fanout {
		t.empty.Add(1) // right is born empty; insertAt takes it back
	}
	if idx > mid || mid == fanout {
		t.insertAt(right, idx-mid, k, rec)
	} else {
		t.insertAt(lf, idx, k, rec)
	}
	sep := right.get(0) // the separator shares the key's suffix

	// Record changes for the two leaves; they are unlocked after the
	// separator is linked into the parent chain.
	pending := []pendingUnlock{
		{n: &lf.node, bump: true},
		{n: &right.node, bump: true, created: true},
	}
	changes = t.propagateSplit(locked, preV, &lf.node, sep, &right.node, pending)
	return rec, true, changes, true
}

type pendingUnlock struct {
	n       *node
	bump    bool
	created bool
}

// propagateSplit links (sep, right) into the parent of child, splitting
// inner nodes upward as needed, then unlocks every touched node and returns
// the version changes. locked is the residual locked path (outermost
// first); its final element is the leaf already handled by the caller.
func (t *Tree) propagateSplit(locked []*node, preV []uint64, child *node, sep skey, right *node, pending []pendingUnlock) []VersionChange {
	// Walk up the locked path from the leaf's parent.
	pi := len(locked) - 2 // index of child's parent in locked
	for {
		if pi < 0 {
			// child was the root (everything above split away): new root.
			nr := &inner{}
			nr.level = child.level + 1
			nr.put(0, sep)
			atomic.StorePointer(&nr.children[0], unsafe.Pointer(child))
			atomic.StorePointer(&nr.children[1], unsafe.Pointer(right))
			nr.nkeys.Store(1)
			atomic.StorePointer(&t.root, unsafe.Pointer(nr))
			break
		}
		parent := (*inner)(unsafe.Pointer(locked[pi]))
		nk := int(parent.nkeys.Load())
		sp := sep.probe()
		idx := parent.search(&sp)
		if nk < fanout {
			for i := nk; i > idx; i-- {
				parent.put(i, parent.get(i-1))
				atomic.StorePointer(&parent.children[i+1], atomic.LoadPointer(&parent.children[i]))
			}
			parent.put(idx, sep)
			atomic.StorePointer(&parent.children[idx+1], unsafe.Pointer(right))
			parent.nkeys.Store(int32(nk + 1))
			pending = markBump(pending, &parent.node)
			break
		}
		// Parent is full: split it and keep propagating.
		pright := &inner{}
		pright.level = parent.level
		pright.version.Store(lockBit)
		mid := fanout / 2
		promoted := parent.get(mid)
		parent.drop(mid)
		for i := mid + 1; i < fanout; i++ {
			pright.put(i-mid-1, parent.get(i))
			parent.drop(i)
		}
		for i := mid + 1; i <= fanout; i++ {
			atomic.StorePointer(&pright.children[i-mid-1], atomic.LoadPointer(&parent.children[i]))
			atomic.StorePointer(&parent.children[i], nil)
		}
		pright.nkeys.Store(int32(fanout - mid - 1))
		parent.nkeys.Store(int32(mid))
		// Insert (sep, right) into the proper half.
		target := parent
		if pp := promoted.probe(); compare(&sp, &pp) >= 0 {
			target = pright
		}
		tnk := int(target.nkeys.Load())
		tidx := target.search(&sp)
		for i := tnk; i > tidx; i-- {
			target.put(i, target.get(i-1))
			atomic.StorePointer(&target.children[i+1], atomic.LoadPointer(&target.children[i]))
		}
		target.put(tidx, sep)
		atomic.StorePointer(&target.children[tidx+1], unsafe.Pointer(right))
		target.nkeys.Store(int32(tnk + 1))

		pending = markBump(pending, &parent.node)
		pending = append(pending, pendingUnlock{n: &pright.node, bump: true, created: true})
		child, sep, right = &parent.node, promoted, &pright.node
		pi--
	}

	// Unlock everything: pending nodes (leaves + split inners + created
	// siblings) with or without bumps, then any residual locked ancestors
	// that were not modified.
	changes := make([]VersionChange, 0, len(pending))
	unlockSet := make(map[*node]bool, len(pending))
	for _, p := range pending {
		unlockSet[p.n] = true
		old := p.n.version.Load() &^ lockBit
		if p.created {
			old = 0
		} else {
			// Find the pre-lock version recorded at lock time.
			for i, ln := range locked {
				if ln == p.n {
					old = preV[i]
					break
				}
			}
		}
		if p.bump {
			newV := (p.n.version.Load() + versionInc) &^ lockBit
			p.n.unlockBump()
			changes = append(changes, VersionChange{Node: p.n, Old: old, New: newV, Created: p.created})
		} else {
			p.n.unlock()
		}
	}
	for _, ln := range locked {
		if !unlockSet[ln] {
			ln.unlock()
		}
	}
	return changes
}

func markBump(pending []pendingUnlock, n *node) []pendingUnlock {
	for i := range pending {
		if pending[i].n == n {
			pending[i].bump = true
			return pending
		}
	}
	return append(pending, pendingUnlock{n: n, bump: true})
}

// Remove deletes key from the tree, returning whether it was present and
// the leaf's version change. Transactional deletes mark records absent
// instead and leave the unhooking to the GC, which uses RemoveIf.
func (t *Tree) Remove(key []byte) (removed bool, change VersionChange) {
	return t.RemoveIf(key, func(*record.Record) bool { return true })
}

// RemoveIf deletes key only while pred(current record) holds, atomically
// with respect to the leaf. The GC unhook uses this to remove an absent
// record only if it is still the latest version for its key (§4.9).
func (t *Tree) RemoveIf(key []byte, pred func(*record.Record) bool) (removed bool, change VersionChange) {
	checkKey(key)
	p := probeOf(key)
	for spins := 0; ; spins++ {
		lf, v := t.descend(&p)
		idx, eq := lf.search(&p)
		if !eq {
			if lf.version.Load() == v {
				return false, VersionChange{}
			}
			backoff(spins)
			continue
		}
		if !lf.tryUpgrade(v) {
			backoff(spins)
			continue
		}
		idx, eq = lf.search(&p)
		if !eq || !pred(lf.val(idx)) {
			lf.unlock()
			return false, VersionChange{}
		}
		nk := int(lf.nkeys.Load())
		for i := idx; i < nk-1; i++ {
			lf.put(i, lf.get(i+1))
			atomic.StorePointer(&lf.vals[i], atomic.LoadPointer(&lf.vals[i+1]))
		}
		atomic.StorePointer(&lf.vals[nk-1], nil)
		lf.drop(nk - 1)
		lf.nkeys.Store(int32(nk - 1))
		if idx < int(lf.hint) {
			lf.hint-- // the slot after the last insert moved down with it
		}
		if nk == 1 {
			t.empty.Add(1)
		}
		newV := (lf.version.Load() + versionInc) &^ lockBit
		lf.unlockBump()
		t.count.Add(-1)
		return true, VersionChange{Node: &lf.node, Old: v, New: newV}
	}
}

// scanBuf is Scan's per-leaf buffer: the validated (key, record) pairs
// copied out of a leaf, and the bytes of the key being handed to the
// callback.
type scanBuf struct {
	keys [fanout]skey
	recs [fanout]*record.Record
	key  [MaxKeyLen]byte
}

// scanBufPool recycles Scan's buffers. A buffer cannot live on Scan's
// stack: the key slices handed to the callback alias it, so escape analysis
// (correctly) heap-allocates it — one allocation per scan that this pool
// turns into none. Re-entrant callbacks (a read on another table mid-scan)
// simply draw a second buffer.
var scanBufPool = sync.Pool{New: func() any { return new(scanBuf) }}

// Scan visits keys in [lo, hi) in order (hi nil means +∞). For every leaf
// examined — including leaves that contribute no keys, which still guard
// the range against phantoms — nodeFn receives the leaf and its validated
// version. fn receives each key and record; returning false stops the scan.
// Key slices passed to fn are valid only during the callback.
func (t *Tree) Scan(lo, hi []byte, nodeFn func(n *Node, version uint64), fn func(key []byte, rec *record.Record) bool) {
	checkKey(lo)
	buf := scanBufPool.Get().(*scanBuf)
	defer scanBufPool.Put(buf)
	lop, hip := probeOf(lo), probeOf(hi)
	lf, v := t.descend(&lop)
	first := true
	for lf != nil {
		var cnt int
		var next *leaf
		for spins := 0; ; spins++ {
			if !first {
				v = lf.stable()
			}
			cnt = 0
			nk := clampKeys(lf.nkeys.Load())
			for i := 0; i < nk; i++ {
				if lf.cmpAt(i, &lop) < 0 || (hi != nil && lf.cmpAt(i, &hip) >= 0) {
					continue
				}
				buf.keys[cnt] = lf.get(i)
				buf.recs[cnt] = lf.val(i)
				cnt++
			}
			next = lf.nextLeaf()
			if lf.version.Load() == v {
				break
			}
			first = false
			backoff(spins)
		}
		first = false
		if nodeFn != nil {
			nodeFn(&lf.node, v)
		}
		for i := 0; i < cnt; i++ {
			if buf.recs[i] == nil {
				continue // torn slot; its key will be revisited via validation upstream
			}
			if !fn(buf.keys[i].appendTo(buf.key[:0]), buf.recs[i]) {
				return
			}
		}
		// Stop if this leaf's last key already reached hi; otherwise there
		// may be more matching keys to the right.
		if hi == nil {
			if next == nil {
				return
			}
		} else {
			nk := clampKeys(lf.nkeys.Load())
			if nk > 0 && lf.cmpAt(nk-1, &hip) >= 0 {
				return
			}
			if next == nil {
				return
			}
		}
		lf = next
	}
}

func backoff(spins int) {
	if spins < 8 {
		return
	}
	runtime.Gosched()
}
