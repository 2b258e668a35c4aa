package core

import (
	"bytes"
	"cmp"
	"errors"
	"slices"
	"time"
	"unsafe"

	"silo/internal/btree"
	"silo/internal/record"
	"silo/internal/tid"
	"silo/internal/trace"
)

// ErrKeyInvalid reports an empty key or one longer than the index's
// MaxKeyLen.
var ErrKeyInvalid = errors.New("silo: key empty or longer than 62 bytes")

// validKey screens keys before they reach the tree (which treats violations
// as programmer errors and panics).
func validKey(key []byte) bool {
	return len(key) > 0 && len(key) <= btree.MaxKeyLen
}

type writeKind uint8

const (
	writeUpdate writeKind = iota // overwrite an existing (present) record
	writeInsert                  // materialize an absent record (placeholder or superseded delete)
	writeDelete                  // mark a present record absent
)

// readEntry is one read-set observation. table and key identify the
// record for abort forensics: when Phase 2 validation fails on the
// entry, the flight recorder captures the conflicting table id and key
// prefix/hash from here. key is a copy in the transaction's key arena:
// the caller's slice may be a view of a buffer that is recycled before
// the transaction ends (a scan callback's key lives in the tree's pooled
// leaf buffer, which another worker's scan rewrites).
type readEntry struct {
	rec   *record.Record
	word  tid.Word
	table *Table
	key   []byte
}

type writeEntry struct {
	table   *Table
	rec     *record.Record
	key     []byte // copy, owned by the entry
	value   []byte // copy, owned by the entry
	kind    writeKind
	ours    bool     // placeholder installed by this transaction
	prelock tid.Word // record word captured when Phase 1 locked it
	seq     uint32   // statement order, preserved across the Phase 1 sort
}

// nodeEntry is one node-set observation; table feeds abort forensics
// (node conflicts have no single key, so the event carries the table
// alone).
type nodeEntry struct {
	n       *btree.Node
	version uint64
	table   *Table
}

// Reader is what both transaction kinds read through. A *Tx records what
// it reads and validates it at commit; a *SnapTx reads at its snapshot
// epoch and never validates. Either way a read is the same invisible
// operation (§4.4, §4.9), so code that only reads — index scans, read-only
// transaction bodies — takes a Reader and runs unchanged under both.
type Reader interface {
	GetAppend(t *Table, key, buf []byte) ([]byte, error)
	GetBatch(t *Table, keys [][]byte, fn func(i int, val []byte, err error) bool) error
	Scan(t *Table, lo, hi []byte, fn func(key, value []byte) bool) error
}

// Tx is a serializable read/write transaction (§4.4). It tracks a read-set
// (records read, with the TID word observed), a write-set (new record
// states), and a node-set (B+-tree leaves whose versions guard range and
// missing-key reads against phantoms, §4.6). All tracking is thread-local;
// a transaction writes no shared memory until commit.
type Tx struct {
	w      *Worker
	epoch  uint64
	reads  []readEntry
	writes []writeEntry
	nodes  []nodeEntry
	keys   []byte       // arena backing the read-set's keys
	widx   posIndex     // open hash over writes, kept once the write-set outgrows a linear scan
	nidx   posIndex     // the same over nodes
	rbuf   []byte       // scratch buffer for record reads
	hbuf   []byte       // scratch buffer for hook old-value snapshots
	tally  []tableTally // per-table read/write counts, flushed to the obs shard
	fail   error        // set by a failed WriteHook; poisons Commit
	spans  *trace.Spans // non-nil for traced transactions: Commit force-times its phases
	active bool
}

func (tx *Tx) reset() {
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.nodes = tx.nodes[:0]
	tx.keys = tx.keys[:0]
	tx.tally = tx.tally[:0]
	tx.fail = nil
	tx.spans = nil
}

// Worker returns the executing worker.
func (tx *Tx) Worker() *Worker { return tx.w }

// maxKeyArena is the largest key arena a Tx keeps between transactions:
// thousands of reads, so ordinary transactions never re-grow it, while one
// whole-table scan does not pin its keys (and the read-set whose entries
// point into them) to the worker for good. maxNodeSet is the same bound for
// the node-set and its index, in entries. See Worker.finishTx.
const (
	maxKeyArena = 64 << 10
	maxNodeSet  = 4 << 10
)

func (tx *Tx) addRead(t *Table, key []byte, rec *record.Record, w tid.Word) {
	// When the arena grows, earlier entries keep the old backing array;
	// at its high-water mark the copy allocates nothing.
	n := len(tx.keys)
	tx.keys = append(tx.keys, key...)
	tx.reads = append(tx.reads, readEntry{rec: rec, word: w, table: t, key: tx.keys[n:len(tx.keys):len(tx.keys)]})
}

func (tx *Tx) addNode(t *Table, n *btree.Node, version uint64) {
	// A re-observed leaf keeps its first version (the earliest dependency):
	// if the version moved, commit-time validation would abort anyway.
	if tx.findNode(n) < 0 {
		tx.pushNode(nodeEntry{n: n, version: version, table: t})
	}
}

// nodeScanMax is the largest node-set findNode scans linearly; a scan over
// n leaves would otherwise cost n²/2 pointer compares.
const nodeScanMax = 32

// findNode returns n's position in the node-set, or -1.
func (tx *Tx) findNode(n *btree.Node) int {
	last := len(tx.nodes) - 1
	if last < 0 {
		return -1
	}
	if tx.nodes[last].n == n {
		// Consecutive misses and batched reads land on the leaf just seen.
		return last
	}
	if last < nodeScanMax {
		for i := range tx.nodes[:last] {
			if tx.nodes[i].n == n {
				return i
			}
		}
		return -1
	}
	mask := uint64(len(tx.nidx) - 1)
	for s := nodeHash(n) & mask; ; s = (s + 1) & mask {
		i := int(tx.nidx[s]) - 1
		if i < 0 || tx.nodes[i].n == n {
			return i
		}
	}
}

func nodeHash(n *btree.Node) uint64 {
	return uint64(uintptr(unsafe.Pointer(n))) * 0x9E3779B97F4A7C15 >> 32
}

func (tx *Tx) pushNode(e nodeEntry) {
	tx.nodes = append(tx.nodes, e)
	if len(tx.nodes) > nodeScanMax {
		tx.nidx.add(len(tx.nodes), nodeScanMax, func(i int) uint64 { return nodeHash(tx.nodes[i].n) })
	}
}

// applyNodeChanges implements §4.6's node-set maintenance after an insert by
// this transaction: entries matching a changed node's old version advance to
// the new version; a mismatch means a concurrent transaction also modified
// the node, so we must abort. Nodes created by the split are added to the
// node-set so scanned ranges stay covered.
func (tx *Tx) applyNodeChanges(t *Table, changes []btree.VersionChange) error {
	for _, ch := range changes {
		if ch.Created {
			tx.pushNode(nodeEntry{n: ch.Node, version: ch.New, table: t})
		} else if i := tx.findNode(ch.Node); i >= 0 {
			if tx.nodes[i].version != ch.Old {
				return ErrConflict
			}
			tx.nodes[i].version = ch.New
		}
	}
	return nil
}

// writeScanMax is the largest write-set findWrite scans linearly. Every
// statement looks its key up in the write-set, so a bulk transaction of n
// writes would cost n²/2 key comparisons; past this size the lookups go
// through a hash index instead. TPC-C's transactions stay below it.
const writeScanMax = 32

// findWrite returns the index of this transaction's pending write to
// (table, key), or -1.
func (tx *Tx) findWrite(t *Table, key []byte) int {
	if len(tx.writes) <= writeScanMax {
		for i := range tx.writes {
			if tx.writes[i].table == t && bytes.Equal(tx.writes[i].key, key) {
				return i
			}
		}
		return -1
	}
	mask := uint64(len(tx.widx) - 1)
	for s := writeHash(t, key) & mask; ; s = (s + 1) & mask {
		i := int(tx.widx[s]) - 1
		if i < 0 {
			return -1
		}
		if tx.writes[i].table == t && bytes.Equal(tx.writes[i].key, key) {
			return i
		}
	}
}

func writeHash(t *Table, key []byte) uint64 {
	return trace.HashKey(key) + uint64(t.ID)*0x9E3779B97F4A7C15
}

// posIndex is an open hash from an entry's hash to its position in one of
// the transaction's sets: slots hold the position plus one, zero is empty.
type posIndex []int32

// add enters position n-1 of a set that has just grown to n entries. The
// table is built when the set first outgrows scanMax and rebuilt at four
// times the size whenever it would pass half full; its backing array stays
// with the Tx, so a worker that has run one bulk transaction runs the next
// without allocating.
func (ix *posIndex) add(n, scanMax int, hash func(i int) uint64) {
	first := n - 1
	if n == scanMax+1 || 2*n > len(*ix) {
		size := 4 * scanMax
		for size < 4*n {
			size *= 2
		}
		if cap(*ix) < size {
			*ix = make(posIndex, size)
		}
		*ix = (*ix)[:size]
		clear(*ix)
		first = 0
	}
	mask := uint64(len(*ix) - 1)
	for i := first; i < n; i++ {
		s := hash(i) & mask
		for (*ix)[s] != 0 {
			s = (s + 1) & mask
		}
		(*ix)[s] = int32(i + 1)
	}
}

// pushWrite extends the write-set by one entry, recycling the previous
// transaction's key/value buffers at that position (the entry's slices are
// truncated, not dropped, so steady-state transactions allocate nothing
// for write tracking).
func (tx *Tx) pushWrite(t *Table, rec *record.Record, key, value []byte, kind writeKind, ours bool) {
	var we *writeEntry
	if len(tx.writes) < cap(tx.writes) {
		tx.writes = tx.writes[:len(tx.writes)+1]
		we = &tx.writes[len(tx.writes)-1]
	} else {
		tx.writes = append(tx.writes, writeEntry{})
		we = &tx.writes[len(tx.writes)-1]
	}
	we.table = t
	we.rec = rec
	we.key = append(we.key[:0], key...)
	we.value = append(we.value[:0], value...)
	we.kind = kind
	we.ours = ours
	we.prelock = 0
	we.seq = uint32(len(tx.writes) - 1)
	if len(tx.writes) > writeScanMax {
		tx.widx.add(len(tx.writes), writeScanMax, func(i int) uint64 { return writeHash(tx.writes[i].table, tx.writes[i].key) })
	}
	tx.tallyWrite(t)
}

// hookInsert, hookUpdate and hookDelete dispatch a table's registered
// write hooks. The first hook error is remembered in tx.fail, which makes
// Commit abort: a caller that ignores the error cannot commit a state
// where the primary write landed but its hooked side effects did not.
// Hook errors are returned unwrapped so sentinel comparisons (and the
// ErrConflict retry loop in Worker.Run) keep working.
func (tx *Tx) hookInsert(hooks []WriteHook, pk, val []byte) error {
	for _, h := range hooks {
		if err := h.OnInsert(tx, pk, val); err != nil {
			tx.fail = err
			return err
		}
	}
	return nil
}

func (tx *Tx) hookUpdate(hooks []WriteHook, pk, oldVal, newVal []byte) error {
	for _, h := range hooks {
		if err := h.OnUpdate(tx, pk, oldVal, newVal); err != nil {
			tx.fail = err
			return err
		}
	}
	return nil
}

func (tx *Tx) hookDelete(hooks []WriteHook, pk, oldVal []byte) error {
	for _, h := range hooks {
		if err := h.OnDelete(tx, pk, oldVal); err != nil {
			tx.fail = err
			return err
		}
	}
	return nil
}

// Get returns the value stored for key. The returned slice is owned by the
// caller (it is freshly copied). Missing and logically-absent keys return
// ErrNotFound; both register the observation so commit-time validation
// preserves serializability (§4.5, §4.6).
func (tx *Tx) Get(t *Table, key []byte) ([]byte, error) {
	return tx.GetAppend(t, key, nil)
}

// GetAppend is Get appending the value to buf instead of allocating,
// returning the extended buffer. It is the allocation-free read path for
// hot loops; semantics otherwise match Get.
func (tx *Tx) GetAppend(t *Table, key, buf []byte) ([]byte, error) {
	if !tx.active {
		return buf, ErrTxDone
	}
	if !validKey(key) {
		return buf, ErrKeyInvalid
	}
	if i := tx.findWrite(t, key); i >= 0 {
		if tx.writes[i].kind == writeDelete {
			return buf, ErrNotFound
		}
		return append(buf, tx.writes[i].value...), nil
	}
	rec, n, ver := t.Tree.Get(key)
	if rec == nil {
		tx.addNode(t, n, ver)
		return buf, ErrNotFound
	}
	val, w := rec.Read(tx.rbuf)
	tx.rbuf = val[:0]
	tx.addRead(t, key, rec, w)
	tx.tallyRead(t)
	if w.Absent() {
		return buf, ErrNotFound
	}
	if !w.Latest() {
		// Superseded version reached through the tree: a concurrent
		// structural change is in flight; not serializable to use it.
		return buf, ErrConflict
	}
	return append(buf, val...), nil
}

// checkBatch screens a GetBatch key list: every key valid, ascending.
func checkBatch(keys [][]byte) error {
	for i, k := range keys {
		if !validKey(k) {
			return ErrKeyInvalid
		}
		if i > 0 && bytes.Compare(keys[i-1], k) > 0 {
			return errors.New("silo: GetBatch keys not sorted")
		}
	}
	return nil
}

// GetBatch reads many keys in one pass. keys must be sorted ascending
// (duplicates allowed); fn is called once per key, in order, with the
// value or ErrNotFound, and fn returning false stops the batch early.
// Values alias a transaction buffer valid only during the callback.
//
// Semantics per key are exactly Get's — present reads join the read-set,
// misses register the guarding leaf in the node-set — but the tree is
// walked with one descent per leaf run instead of one per key, which is
// the point: resolving an index scan's primary keys in sorted order
// touches long runs of keys on shared leaves. A superseded record version
// aborts the batch with ErrConflict as in Get.
func (tx *Tx) GetBatch(t *Table, keys [][]byte, fn func(i int, val []byte, err error) bool) error {
	if !tx.active {
		return ErrTxDone
	}
	if err := checkBatch(keys); err != nil {
		return err
	}
	var inner error
	t.Tree.GetBatch(keys, func(i int, rec *record.Record, n *btree.Node, ver uint64) bool {
		if wi := tx.findWrite(t, keys[i]); wi >= 0 {
			if tx.writes[wi].kind == writeDelete {
				return fn(i, nil, ErrNotFound)
			}
			return fn(i, tx.writes[wi].value, nil)
		}
		if rec == nil {
			tx.addNode(t, n, ver)
			return fn(i, nil, ErrNotFound)
		}
		val, w := rec.Read(tx.rbuf)
		tx.rbuf = val[:0]
		tx.addRead(t, keys[i], rec, w)
		tx.tallyRead(t)
		if w.Absent() {
			return fn(i, nil, ErrNotFound)
		}
		if !w.Latest() {
			inner = ErrConflict
			return false
		}
		return fn(i, val, nil)
	})
	return inner
}

// Put replaces the value of an existing key. The key must be present;
// writing a missing key requires Insert. Put registers the record in both
// the read-set (presence is validated at commit, so a concurrent delete
// aborts us) and the write-set.
func (tx *Tx) Put(t *Table, key, value []byte) error {
	if !tx.active {
		return ErrTxDone
	}
	if !validKey(key) {
		return ErrKeyInvalid
	}
	hooks := t.WriteHooks()
	if i := tx.findWrite(t, key); i >= 0 {
		if tx.writes[i].kind == writeDelete {
			return ErrNotFound
		}
		if hooks != nil {
			// Snapshot the superseded pending value before overwriting it;
			// hooks need the old state to undo its derived effects.
			tx.hbuf = append(tx.hbuf[:0], tx.writes[i].value...)
		}
		tx.writes[i].value = append(tx.writes[i].value[:0], value...)
		return tx.hookUpdate(hooks, key, tx.hbuf, value)
	}
	rec, n, ver := t.Tree.Get(key)
	if rec == nil {
		tx.addNode(t, n, ver)
		return ErrNotFound
	}
	var w tid.Word
	var old []byte
	if hooks != nil {
		// Hooked tables pay for a data read on Put: the old value feeds
		// the hooks. The word is validated with the data by Read.
		old, w = rec.Read(tx.rbuf)
		tx.rbuf = old[:0]
	} else {
		w = rec.ReadWord()
	}
	tx.addRead(t, key, rec, w)
	if w.Absent() {
		return ErrNotFound
	}
	if !w.Latest() {
		return ErrConflict
	}
	tx.pushWrite(t, rec, key, value, writeUpdate, false)
	return tx.hookUpdate(hooks, key, old, value)
}

// Insert adds a new key. Following §4.5, a placeholder record in the absent
// state with TID 0 is installed in the tree immediately (via
// insert-if-absent), then added to both the read- and write-sets; Phase 2's
// read-set validation ensures no other transaction superseded it. If the
// key exists and is present, Insert returns ErrKeyExists (the paper aborts
// the transaction; callers surface this as an abort). An existing absent
// record (a committed delete) is superseded in place.
func (tx *Tx) Insert(t *Table, key, value []byte) error {
	if !tx.active {
		return ErrTxDone
	}
	if !validKey(key) {
		return ErrKeyInvalid
	}
	hooks := t.WriteHooks()
	if i := tx.findWrite(t, key); i >= 0 {
		if tx.writes[i].kind == writeDelete {
			// Delete then insert in one transaction: net effect is an update.
			// The earlier Delete already ran the delete hooks, so this is an
			// insert from the hooks' point of view.
			tx.writes[i].kind = writeUpdate
			tx.writes[i].value = append(tx.writes[i].value[:0], value...)
			return tx.hookInsert(hooks, key, value)
		}
		return ErrKeyExists
	}
	rec, _, _ := t.Tree.Get(key)
	if rec == nil {
		placeholder := record.NewAbsent()
		cur, inserted, changes := t.Tree.InsertIfAbsent(key, placeholder)
		if inserted {
			if err := tx.applyNodeChanges(t, changes); err != nil {
				return err
			}
			tx.addRead(t, key, placeholder, placeholder.Word())
			tx.pushWrite(t, placeholder, key, value, writeInsert, true)
			return tx.hookInsert(hooks, key, value)
		}
		rec = cur
	}
	// Key maps to some record: absent means we may supersede it, present
	// means the insert fails.
	w := rec.ReadWord()
	tx.addRead(t, key, rec, w)
	if !w.Absent() {
		return ErrKeyExists
	}
	if !w.Latest() {
		return ErrConflict
	}
	tx.pushWrite(t, rec, key, value, writeInsert, false)
	return tx.hookInsert(hooks, key, value)
}

// Delete removes key. The record is marked absent at commit and unhooked
// from the tree later by the garbage collector, once no snapshot can need
// its older versions (§4.5, §4.9). Deleting a missing key returns
// ErrNotFound and registers the observation for phantom protection.
func (tx *Tx) Delete(t *Table, key []byte) error {
	if !tx.active {
		return ErrTxDone
	}
	if !validKey(key) {
		return ErrKeyInvalid
	}
	hooks := t.WriteHooks()
	if i := tx.findWrite(t, key); i >= 0 {
		if tx.writes[i].kind == writeDelete {
			return ErrNotFound
		}
		// Pending insert (ours or superseding) or update: committing a
		// delete restores the absent state either way; for our own fresh
		// placeholder that is exactly what the installed record already
		// holds.
		if hooks != nil {
			tx.hbuf = append(tx.hbuf[:0], tx.writes[i].value...)
		}
		tx.writes[i].kind = writeDelete
		tx.writes[i].value = tx.writes[i].value[:0]
		return tx.hookDelete(hooks, key, tx.hbuf)
	}
	rec, n, ver := t.Tree.Get(key)
	if rec == nil {
		tx.addNode(t, n, ver)
		return ErrNotFound
	}
	var w tid.Word
	var old []byte
	if hooks != nil {
		old, w = rec.Read(tx.rbuf)
		tx.rbuf = old[:0]
	} else {
		w = rec.ReadWord()
	}
	tx.addRead(t, key, rec, w)
	if w.Absent() {
		return ErrNotFound
	}
	if !w.Latest() {
		return ErrConflict
	}
	tx.pushWrite(t, rec, key, nil, writeDelete, false)
	return tx.hookDelete(hooks, key, old)
}

// Scan visits keys in [lo, hi) in order (hi nil means +∞), calling fn for
// each present key; fn returning false stops the scan. Values passed to fn
// are valid only during the callback. Every tree leaf examined is added to
// the node-set with its version, so committed scans are immune to phantoms
// (§4.6). Pending writes of this transaction are overlaid (its own inserts
// appear, its deletes do not).
func (tx *Tx) Scan(t *Table, lo, hi []byte, fn func(key, value []byte) bool) error {
	if !tx.active {
		return ErrTxDone
	}
	if !validKey(lo) || (hi != nil && len(hi) > btree.MaxKeyLen) {
		return ErrKeyInvalid
	}
	var inner error
	t.Tree.Scan(lo, hi,
		func(n *btree.Node, version uint64) { tx.addNode(t, n, version) },
		func(key []byte, rec *record.Record) bool {
			if i := tx.findWrite(t, key); i >= 0 {
				switch tx.writes[i].kind {
				case writeDelete:
					return true
				default:
					return fn(key, tx.writes[i].value)
				}
			}
			val, w := rec.Read(tx.rbuf)
			tx.rbuf = val[:0]
			tx.addRead(t, key, rec, w)
			tx.tallyRead(t)
			if w.Absent() {
				return true
			}
			if !w.Latest() {
				inner = ErrConflict
				return false
			}
			return fn(key, val)
		})
	return inner
}

// Abort abandons the transaction. Placeholders installed by its inserts are
// registered for garbage collection (§4.5: "the commit protocol registers
// the absent record for future garbage collection").
func (tx *Tx) Abort() {
	if tx.active {
		tx.abort(abortExplicit, nil, nil)
	}
}

// abort is the one way a transaction ends without committing: it registers
// the placeholders its inserts installed for collection, counts the abort
// under reason (an explicit abort of a transaction a WriteHook poisoned
// counts as hook_poisoned), records it in the flight recorder with the
// conflicting table and key (nil for keyless reasons), and finishes the
// transaction. Commit's own aborts release their Phase 1 locks first
// (abortCommit).
func (tx *Tx) abort(reason abortReason, t *Table, key []byte) {
	w := tx.w
	for i := range tx.writes {
		if tx.writes[i].ours {
			w.gc.registerUnhook(tx.writes[i].table, tx.writes[i].key, tx.writes[i].rec, 0, tx.epoch, false)
		}
	}
	if reason == abortExplicit && tx.fail != nil {
		reason = abortHookPoisoned
	}
	tx.active = false
	w.obs.aborts[reason].Inc()
	var tableID uint32
	if t != nil {
		tableID = t.ID
	}
	var hash uint64
	if len(key) > 0 {
		hash = trace.HashKey(key)
	}
	w.ring.Record(trace.EvAbort, uint16(reason), tableID, hash, key)
	tx.flushTally()
	w.finishTx()
}

// abandon ends the transaction on err, an error fn returned or a failed
// WriteHook's poison found at Commit. Reads are invisible and unvalidated
// until Phase 2 (§4.4), so err may come from two records of different
// serial points — an observation no serial execution allows. abandon
// validates the reads first, as a read-only commit would: if they hold,
// err is an observation and is returned; if not, or err is ErrConflict,
// the attempt was doomed and aborts as one with ErrConflict.
func (tx *Tx) abandon(err error) error {
	if !tx.active {
		return err
	}
	reason, t, key := tx.validate(false)
	if reason == valid && err != ErrConflict {
		tx.abort(abortExplicit, nil, nil)
		return err
	}
	tx.abort(abortDoomed, t, key)
	return ErrConflict
}

// validate is Phase 2's check (§4.4): every record read still has the TID
// observed, is latest and is unlocked, and every leaf observed still has
// its version. A record this transaction locked itself passes only when
// Phase 1 holds the locks (locked). It returns valid, or the reason and the
// entry that failed (key nil for a node-set entry).
func (tx *Tx) validate(locked bool) (reason abortReason, t *Table, key []byte) {
	for i := range tx.reads {
		r := &tx.reads[i]
		cur := r.rec.Word()
		if cur.TID() != r.word.TID() || !cur.Latest() ||
			(cur.Locked() && !(locked && tx.inWriteSet(r.rec))) {
			return abortReadValidation, r.table, r.key
		}
	}
	for i := range tx.nodes {
		if tx.nodes[i].n.Version() != tx.nodes[i].version {
			return abortNodeValidation, tx.nodes[i].table, nil
		}
	}
	return valid, nil, nil
}

// Commit runs the paper's three-phase commit protocol (Figure 2). On
// success it returns nil and the transaction's effects are visible and
// ordered; on validation failure it releases all locks, aborts, and returns
// ErrConflict. A transaction a write hook poisoned is abandoned instead
// (see abandon): its hook's error, or ErrConflict if its reads were doomed.
func (tx *Tx) Commit() error {
	if !tx.active {
		return ErrTxDone
	}
	if tx.fail != nil {
		// A write hook failed mid-transaction: the primary write may be
		// staged without its hooked side effects. Committing would break
		// the hook's invariant (e.g. index consistency), so abort.
		return tx.abandon(tx.fail)
	}
	w := tx.w
	s := w.store

	// Phase timing: a traced commit and 1 in phaseSampleInterval commits
	// per worker read the store clock (deterministic under simulation) at
	// four points, t0–t3, from which both the sampled histograms and the
	// spans are cut; all others pay one increment and a mask test.
	o := w.obs
	o.tick++
	sample := o.tick&(phaseSampleInterval-1) == 0
	timed := sample || tx.spans != nil
	var t0, t1, t2, t3 time.Duration
	if timed {
		t0 = s.now()
	}

	// Phase 1: lock all written records, in the global order given by
	// record addresses, to avoid deadlock (§4.4). slices.SortFunc rather
	// than sort.Slice: the reflection-based swapper allocates per call,
	// which is the difference between a zero-allocation commit and not.
	if len(tx.writes) > 1 {
		slices.SortFunc(tx.writes, func(a, b writeEntry) int {
			return cmp.Compare(a.rec.Addr(), b.rec.Addr())
		})
	}
	for i := range tx.writes {
		tx.writes[i].prelock = tx.writes[i].rec.Lock()
	}
	if timed {
		t1 = s.now()
	}

	// Serialization point: a single atomic read of the global epoch. Go's
	// atomics are sequentially consistent, which subsumes the paper's
	// fences: the load is ordered after all Phase 1 lock writes and before
	// all Phase 2 validation reads.
	e := s.epochs.Global()

	// Phase 2: validate the read-set and node-set. A failure hands the
	// conflicting entry's table and key to abortCommit, which captures
	// them — reason, table id, key prefix, key hash — in the flight
	// recorder at the moment the conflict is discovered.
	if reason, t, key := tx.validate(true); reason != valid {
		return tx.abortCommit(reason, t, key)
	}

	// Choose the commit TID: larger than every record read or written,
	// larger than this worker's previous TID, in epoch e (§4.2).
	var maxObserved uint64
	for i := range tx.reads {
		if t := tx.reads[i].word.TID(); t > maxObserved {
			maxObserved = t
		}
	}
	for i := range tx.writes {
		if t := tx.writes[i].prelock.TID(); t > maxObserved {
			maxObserved = t
		}
	}
	var commit tid.Word
	var ok bool
	if s.opts.GlobalTID {
		commit, ok = s.globalGen.Generate(e, maxObserved)
		w.gen.Generate(e, uint64(commit)) // keep the local generator monotone too
	} else {
		commit, ok = w.gen.Generate(e, maxObserved)
	}
	if !ok && len(tx.writes) > 0 {
		// Epoch e has no sequence number left above what this transaction
		// observed. Its writes cannot be installed in e, and a TID of a
		// later epoch would break the epoch order, so abort, have the epoch
		// closed now rather than at its tick, and let the retry commit in
		// the next one. (A read-only transaction installs and logs nothing;
		// its TID is only reported, so it commits regardless.)
		s.epochs.AdvanceSoon(e)
		return tx.abortCommit(abortEpochFull, nil, nil)
	}
	if timed {
		t2 = s.now()
	}

	// Phase 3: install the writes and release each lock as soon as its
	// record is written. The new TID becomes visible atomically with the
	// lock release because they share a word.
	for i := range tx.writes {
		tx.installWrite(&tx.writes[i], commit, e)
	}

	// Hand the committed transaction to the durability layer (§4.10). This
	// happens after locks are released; the serial order is preserved
	// because log replay orders by TID per record and recovery truncates at
	// epoch granularity.
	if w.logFn != nil && len(tx.writes) > 0 {
		// Emit records in statement order, not the Phase 1 address-sorted
		// order: replay is order-free (TID-max install), but heap addresses
		// vary run to run, and deterministic log bytes are what let the
		// simulation harness replay a seed into an identical disk image.
		if cap(w.wbuf) < len(tx.writes) {
			w.wbuf = make([]LoggedWrite, len(tx.writes))
		}
		w.wbuf = w.wbuf[:len(tx.writes)]
		for i := range tx.writes {
			w.wbuf[tx.writes[i].seq] = LoggedWrite{
				Table:  tx.writes[i].table.ID,
				Key:    tx.writes[i].key,
				Value:  tx.writes[i].value,
				Delete: tx.writes[i].kind == writeDelete,
			}
		}
		w.logFn(commit, w.wbuf)
	}
	if timed {
		t3 = s.now()
	}

	tx.active = false
	o.commits.Inc()
	if sample {
		o.phase[obsPhaseLock].ObserveDuration(int64(t1 - t0))
		o.phase[obsPhaseValidate].ObserveDuration(int64(t2 - t1))
		o.phase[obsPhaseInstall].ObserveDuration(int64(t3 - t2))
		o.nodeset.Observe(uint64(len(tx.nodes)))
	}
	if sp := tx.spans; sp != nil {
		sp.Validate += t2 - t0
		sp.Log += t3 - t2
		sp.TID = uint64(commit)
	}
	nw := len(tx.writes)
	if nw > 0xFFFF {
		nw = 0xFFFF
	}
	w.ring.Record(trace.EvCommit, uint16(nw), 0, uint64(commit), nil)
	tx.flushTally()
	w.finishTx()
	return nil
}

// inWriteSet reports whether rec is one of this transaction's written
// records. The write-set is sorted by address at this point, so binary
// search applies.
func (tx *Tx) inWriteSet(rec *record.Record) bool {
	a := rec.Addr()
	lo, hi := 0, len(tx.writes)
	for lo < hi {
		mid := (lo + hi) / 2
		if tx.writes[mid].rec.Addr() < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(tx.writes) && tx.writes[lo].rec == rec
}

// abortCommit releases all Phase 1 locks (restoring pre-lock words) and
// aborts with ErrConflict. t and key name the conflicting entry (key nil
// for node-set conflicts and other keyless reasons); the flight recorder
// captures them with the reason so the abort is attributable to a table
// and key after the fact.
func (tx *Tx) abortCommit(reason abortReason, t *Table, key []byte) error {
	for i := range tx.writes {
		tx.writes[i].rec.Unlock(tx.writes[i].prelock)
	}
	tx.abort(reason, t, key)
	return ErrConflict
}

// installWrite applies one write-set entry during Phase 3: preserve the old
// version for snapshots when the snapshot boundary requires it (§4.9),
// install the new data, and publish the commit TID while releasing the
// lock.
func (tx *Tx) installWrite(we *writeEntry, commit tid.Word, e uint64) {
	w := tx.w
	s := w.store
	rec := we.rec
	old := we.prelock

	if s.opts.Snapshots && old.TID() != 0 && s.epochs.Snap(old.Epoch()) != s.epochs.Snap(e) {
		// The old version belongs to an earlier snapshot: link an immutable
		// copy into the version chain and register its memory for
		// reclamation at snap(e).
		snapCopy := rec.CopyForSnapshot(old)
		rec.SetPrev(snapCopy)
		w.gc.registerSnapshotVersion(w.obs, rec, snapCopy, s.epochs.Snap(e))
	}

	switch we.kind {
	case writeDelete:
		// Mark absent; data is cleared. The record stays in the tree so
		// snapshot transactions can reach the version chain; the GC unhooks
		// it once the snapshot reclamation epoch passes (§4.9).
		tx.setRecordData(rec, nil)
		newWord := commit.WithLatest(true).WithAbsent(true)
		rec.Unlock(newWord)
		var reclaim uint64
		snapBased := false
		if s.opts.Snapshots {
			reclaim = s.epochs.Snap(e)
			snapBased = true
		} else {
			reclaim = e
		}
		w.gc.registerUnhook(we.table, we.key, rec, commit.TID(), reclaim, snapBased)
	default:
		tx.setRecordData(rec, we.value)
		rec.Unlock(commit.WithLatest(true).WithAbsent(false))
	}
}

// setRecordData installs value into rec (lock held), honouring the
// overwrite and arena options: in-place overwrite when the length matches
// (+Overwrites), otherwise a fresh buffer from the worker's arena
// (+Allocator) or the heap. A delete installs the empty value. Replaced
// buffers return to the arena's list for their class; a late racy reader
// of a recycled buffer reads inside it and is rejected by its TID-word
// validation, so immediate reuse is safe.
func (tx *Tx) setRecordData(rec *record.Record, value []byte) {
	w := tx.w
	opts := &w.store.opts
	if opts.Overwrites && rec.TryOverwriteLocked(value) {
		return
	}
	var raw []byte
	if opts.Arena {
		raw = w.arena.alloc(len(value))
	}
	if old := rec.SetDataLocked(value, raw); opts.Arena && old != nil {
		w.arena.free(old)
	}
}
