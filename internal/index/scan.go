package index

import (
	"bytes"
	"errors"
	"slices"
	"sync"

	"silo/internal/core"
)

// ErrNotUnique reports a point lookup on a non-unique index.
var ErrNotUnique = errors.New("silo: index lookup requires a unique index")

// ErrNotCovering reports a covering scan of an index declared without an
// include list.
var ErrNotCovering = errors.New("silo: index is not covering (declared without an include list)")

// Scan visits index entries with entry keys in [lo, hi) in order, resolving
// each to its primary row and calling fn(secondaryKey, primaryKey, value);
// fn returning false stops the scan. All three slices are valid only during
// the callback.
//
// The scan is phantom-safe on both trees: entry-tree leaves join the
// transaction's node-set, and every resolved primary read joins its
// read-set, so a concurrent insert, delete, or update anywhere in the
// scanned secondary range — or of any resolved row — aborts this
// transaction at commit. An entry whose primary row is missing during
// execution means a concurrent writer got between the two trees; the scan
// returns ErrConflict so the caller retries.
//
// Scan resolves rows one point read per entry and streams results, which
// is the right shape when the caller stops early (TPC-C's "most recent
// order" reads one entry). For large ranges consumed in full, ScanBatched
// resolves with ordered multi-get descents instead, and for queries that
// only need included fields a covering index skips resolution entirely
// (ScanCovering).
func Scan(tx *core.Tx, ix *Index, lo, hi []byte, fn func(sk, pk, val []byte) bool) error {
	ix.obs.scanPerEntry.Inc()
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	var inner error
	err := tx.Scan(ix.Entries, lo, hi, func(ek, ev []byte) bool {
		pk, perr := ix.EntryValuePK(ev)
		if perr != nil {
			inner = perr
			return false
		}
		// The entry value aliases the transaction's read buffer, which the
		// nested primary read reuses: copy the primary key out first.
		sc.buf = append(sc.buf[:0], pk...)
		v, gerr := tx.GetAppend(ix.On, sc.buf, sc.vals[:0])
		sc.vals = v
		if gerr == core.ErrNotFound {
			ix.obs.lookupConflicts.Inc()
			inner = core.ErrConflict
			return false
		}
		if gerr != nil {
			inner = gerr
			return false
		}
		return fn(ix.SecondaryKey(ek, sc.buf), sc.buf, v)
	})
	if err != nil {
		return err
	}
	return inner
}

// testHookAfterCollect, when non-nil, runs between ScanBatched's entry
// collection and its batched primary resolution. Tests use it to commit a
// concurrent write deterministically inside that window and assert the
// OCC machinery aborts the scanning transaction rather than returning a
// torn row.
var testHookAfterCollect func()

// batchedEnt is one collected entry awaiting batched resolution; offsets
// index the shared collection buffer.
type batchedEnt struct {
	ekEnd int // entry key bytes end at this offset (start = previous end)
	pkEnd int // primary key bytes end at this offset
}

// batchScratch is the reusable working state of one resolving scan,
// pooled so steady-state scans allocate nothing of their own: the
// collection buffer, the sort permutation, the sorted key views, and the
// resolved-value arena all reuse prior capacity. (Scan borrows buf and
// vals as its key and row buffers.)
type batchScratch struct {
	buf   []byte       // entry keys ‖ primary keys, concatenated
	ents  []batchedEnt // offsets into buf
	order []int        // sort permutation (unsorted batches only)
	keys  [][]byte     // primary keys in sorted order (views into buf)
	vals  []byte       // resolved row bytes, appended in sorted order
	valAt [][2]int     // per-entry [start, end) into vals
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// entry returns collected entry i's entry key and primary key.
func (sc *batchScratch) entry(i int) (ek, pk []byte) {
	start := 0
	if i > 0 {
		start = sc.ents[i-1].pkEnd
	}
	e := sc.ents[i]
	return sc.buf[start:e.ekEnd], sc.buf[e.ekEnd:e.pkEnd]
}

func (sc *batchScratch) pkOf(i int) []byte {
	return sc.buf[sc.ents[i].ekEnd:sc.ents[i].pkEnd]
}

// ScanBatched is Scan with batched primary-row resolution: it first
// collects up to max matching entries (0 means no bound) from the entry
// tree, then resolves their primary keys in sorted order with a single
// ordered multi-get pass over the primary tree (one descent per leaf run
// instead of one per entry), emitting results to fn in entry-key order.
// The batched pass is adaptive: a sample of the first collected primary
// keys estimates whether the range clusters in the primary tree, and a
// scattered range (hash-like pks, nothing for sorted descents to share)
// falls back to streaming per-entry resolution of the collected entries
// instead — same results, same OCC guarantees, no wasted sort.
//
// OCC semantics are identical to Scan: collected entries and resolved
// rows join the read-set, entry leaves join the node-set, and a
// concurrent write landing between collection and resolution either
// surfaces as ErrConflict here (a resolved row gone missing) or aborts
// the transaction at commit (read-set/node-set validation) — never as a
// torn row in a committed transaction.
//
// Emission is as-resolved. When the collected primary keys are already
// in ascending order (secondary order parallels primary order: clustered
// indexes, TPC-C composites) the multi-get visits rows in emission order,
// so fn is called from inside it, on the transaction's own read buffer —
// no row is staged. Two consequences for fn. It may have seen a prefix of
// the page when ScanBatched returns ErrConflict: like any transaction
// body it must tolerate re-execution (restart its output, as the network
// server's scan visitor does). And it runs inside the transaction's read
// of the primary table, on slices valid only for the callback: copy what
// it keeps and act on it after ScanBatched returns, not through tx from
// inside fn. Unsorted batches resolve in primary order into a staging
// arena and emit once the whole page is resolved. Either way fn
// returning false stops emission but not collection, so pass max when
// the caller wants a bounded prefix.
func ScanBatched(tx *core.Tx, ix *Index, lo, hi []byte, max int, fn func(sk, pk, val []byte) bool) error {
	ix.obs.scanBatched.Inc()
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	sc.buf, sc.ents = sc.buf[:0], sc.ents[:0]

	// Phase 1: collect the matching entries. Entry keys and primary keys
	// are copied into one grow-only buffer; entries are offsets into it.
	// Sortedness is tracked as we go — a secondary order that parallels
	// primary order skips the permutation, and the staging, entirely.
	var inner error
	sorted := true
	err := tx.Scan(ix.Entries, lo, hi, func(ek, ev []byte) bool {
		pk, perr := ix.EntryValuePK(ev)
		if perr != nil {
			inner = perr
			return false
		}
		sc.buf = append(sc.buf, ek...)
		ekEnd := len(sc.buf)
		sc.buf = append(sc.buf, pk...)
		if n := len(sc.ents); sorted && n > 0 {
			sorted = bytes.Compare(sc.pkOf(n-1), pk) <= 0
		}
		sc.ents = append(sc.ents, batchedEnt{ekEnd: ekEnd, pkEnd: len(sc.buf)})
		return max <= 0 || len(sc.ents) < max
	})
	if err != nil {
		return err
	}
	if inner != nil {
		return inner
	}
	n := len(sc.ents)
	if n == 0 {
		return nil
	}
	if testHookAfterCollect != nil {
		testHookAfterCollect()
	}

	// The ordered multi-get only beats per-entry resolution when the
	// sorted primary keys actually cluster into shared leaf descents.
	// Sample the first collected pks: a clustered range (TPC-C composites,
	// sequential ids) shares most of its key prefix, while hash-like pks
	// scattered across the primary key space share almost none — there the
	// sort and permutation buy nothing, so resolve the collected entries
	// one point read each instead, already in emission order.
	if !sc.clusteredSample() {
		ix.obs.scanStreamed.Inc()
		return streamResolve(tx, ix, sc, fn)
	}

	// Phase 2: resolve primary keys in sorted order; order maps sorted
	// positions back to collected entries (identity, and unused, when the
	// batch is already sorted).
	sc.keys = sc.keys[:0]
	if sorted {
		for i := 0; i < n; i++ {
			sc.keys = append(sc.keys, sc.pkOf(i))
		}
	} else {
		sc.order = sc.order[:0]
		for i := 0; i < n; i++ {
			sc.order = append(sc.order, i)
		}
		slices.SortFunc(sc.order, func(a, b int) int {
			return bytes.Compare(sc.pkOf(a), sc.pkOf(b))
		})
		for _, e := range sc.order {
			sc.keys = append(sc.keys, sc.pkOf(e))
		}
		if cap(sc.valAt) < n {
			sc.valAt = make([][2]int, n)
		}
		sc.valAt = sc.valAt[:n]
		sc.vals = sc.vals[:0]
	}
	gerr := tx.GetBatch(ix.On, sc.keys, func(i int, val []byte, err error) bool {
		if err == core.ErrNotFound {
			// Entry without its row: a concurrent writer got between the
			// two trees; the caller retries.
			ix.obs.lookupConflicts.Inc()
			inner = core.ErrConflict
			return false
		}
		if err != nil {
			inner = err
			return false
		}
		if sorted {
			// Sorted position = entry position, and val stays valid for
			// the callback: emit now.
			ek, pk := sc.entry(i)
			return fn(ix.SecondaryKey(ek, pk), pk, val)
		}
		start := len(sc.vals)
		sc.vals = append(sc.vals, val...)
		sc.valAt[sc.order[i]] = [2]int{start, len(sc.vals)}
		return true
	})
	if gerr != nil {
		return gerr
	}
	if inner != nil || sorted {
		return inner
	}

	// Phase 3 (unsorted batches): emit in entry-key (secondary) order.
	for i := 0; i < n; i++ {
		ek, pk := sc.entry(i)
		if !fn(ix.SecondaryKey(ek, pk), pk, sc.vals[sc.valAt[i][0]:sc.valAt[i][1]]) {
			return nil
		}
	}
	return nil
}

// clusterSample bounds how many collected pks clusteredSample inspects.
const clusterSample = 16

// clusteredSample guesses whether the collected primary-key set clusters
// in the primary tree, from the shared prefix of its first clusterSample
// keys: clustered ranges share at least half of their shortest sampled
// key. Batches too small to amortize a wrong guess are always called
// clustered (the batched path is the well-tested default).
func (sc *batchScratch) clusteredSample() bool {
	n := len(sc.ents)
	if n <= 8 {
		return true
	}
	s := n
	if s > clusterSample {
		s = clusterSample
	}
	p := sc.pkOf(0)
	lcp, minLen := len(p), len(p)
	for i := 1; i < s; i++ {
		q := sc.pkOf(i)
		if len(q) < minLen {
			minLen = len(q)
		}
		// The set's common prefix is the shortest prefix any key shares
		// with the first.
		c, m := 0, len(p)
		if len(q) < m {
			m = len(q)
		}
		for c < m && p[c] == q[c] {
			c++
		}
		if c < lcp {
			lcp = c
		}
	}
	return lcp*2 >= minLen
}

// streamResolve is ScanBatched's scattered-range fallback: the collected
// entries resolve with one point read each, in collection (= emission)
// order, skipping the sort and the multi-get descent. OCC semantics are
// unchanged — each resolved row joins the read-set, and a missing row
// still surfaces as ErrConflict.
func streamResolve(tx *core.Tx, ix *Index, sc *batchScratch, fn func(sk, pk, val []byte) bool) error {
	for i := range sc.ents {
		ek, pk := sc.entry(i)
		v, gerr := tx.GetAppend(ix.On, pk, sc.vals[:0])
		sc.vals = v[:0]
		if gerr == core.ErrNotFound {
			ix.obs.lookupConflicts.Inc()
			return core.ErrConflict
		}
		if gerr != nil {
			return gerr
		}
		if !fn(ix.SecondaryKey(ek, pk), pk, v) {
			return nil
		}
	}
	return nil
}

// ScanCovering visits covering-index entries in [lo, hi), serving the
// included row fields straight from the entry values: fn receives
// (secondaryKey, primaryKey, includedFields) and the primary tree is
// never touched. Phantom safety comes from node-set validation on the
// index tree alone, and freshness from the entries themselves joining the
// read-set — the maintenance hooks rewrite an entry whenever an included
// field changes, so a committed covering scan observed exactly the fields
// the serial order prescribes. Returns ErrNotCovering for an index
// declared without an include list. Slices are valid only during the
// callback.
func ScanCovering(tx *core.Tx, ix *Index, lo, hi []byte, fn func(sk, pk, fields []byte) bool) error {
	if !ix.Covering() {
		return ErrNotCovering
	}
	ix.obs.scanCovering.Inc()
	var inner error
	err := tx.Scan(ix.Entries, lo, hi, func(ek, ev []byte) bool {
		pk, fields, perr := ix.SplitEntryValue(ev)
		if perr != nil {
			inner = perr
			return false
		}
		return fn(ix.SecondaryKey(ek, pk), pk, fields)
	})
	if err != nil {
		return err
	}
	return inner
}

// ScanEntries visits index entries in [lo, hi) without resolving primary
// rows, calling fn(secondaryKey, primaryKey). It is phantom-safe on the
// entry tree only — cheaper than Scan when the primary keys themselves are
// the answer (the caller reads whichever rows it needs, which then join the
// read-set individually). Both slices are valid only during the callback
// and alias transaction buffers: copy pk out before issuing further reads
// on tx.
func ScanEntries(tx *core.Tx, ix *Index, lo, hi []byte, fn func(sk, pk []byte) bool) error {
	ix.obs.scanEntries.Inc()
	var inner error
	err := tx.Scan(ix.Entries, lo, hi, func(ek, ev []byte) bool {
		pk, perr := ix.EntryValuePK(ev)
		if perr != nil {
			inner = perr
			return false
		}
		return fn(ix.SecondaryKey(ek, pk), pk)
	})
	if err != nil {
		return err
	}
	return inner
}

// Lookup resolves a secondary key on a unique index to its primary key and
// row value (ErrNotFound if absent; the observation is registered, so the
// absence is validated at commit). The returned slices are owned by the
// caller.
func Lookup(tx *core.Tx, ix *Index, sk []byte) (pk, val []byte, err error) {
	if !ix.Unique {
		return nil, nil, ErrNotUnique
	}
	ix.obs.lookups.Inc()
	ev, err := tx.Get(ix.Entries, sk)
	if err != nil {
		return nil, nil, err
	}
	pk, err = ix.EntryValuePK(ev)
	if err != nil {
		return nil, nil, err
	}
	val, err = tx.Get(ix.On, pk)
	if err == core.ErrNotFound {
		// The entry exists but its row is gone: a concurrent writer got
		// between the two reads; retry.
		ix.obs.lookupConflicts.Inc()
		return nil, nil, core.ErrConflict
	}
	if err != nil {
		return nil, nil, err
	}
	return pk, val, nil
}

// SnapScan is Scan against a snapshot transaction: entries and rows are
// both read as of the snapshot epoch, so the view is consistent without
// any validation (snapshot transactions never abort). Because maintenance
// is transactional, an entry visible at the snapshot always has its row
// visible too; a missing row can only mean the index predates its table's
// rows (no Backfill) and is skipped.
func SnapScan(stx *core.SnapTx, ix *Index, lo, hi []byte, fn func(sk, pk, val []byte) bool) error {
	ix.obs.snapScan.Inc()
	var inner error
	var pkb []byte
	err := stx.Scan(ix.Entries, lo, hi, func(ek, ev []byte) bool {
		pk, perr := ix.EntryValuePK(ev)
		if perr != nil {
			inner = perr
			return false
		}
		// As in Scan, the entry value aliases the snapshot read buffer that
		// the nested row read reuses.
		pkb = append(pkb[:0], pk...)
		v, gerr := stx.Get(ix.On, pkb)
		if gerr == core.ErrNotFound {
			return true
		}
		if gerr != nil {
			inner = gerr
			return false
		}
		return fn(ix.SecondaryKey(ek, pkb), pkb, v)
	})
	if err != nil {
		return err
	}
	return inner
}

// SnapScanCovering is ScanCovering against a snapshot transaction: the
// included fields are served from entry values as of the snapshot epoch,
// consistent by construction and never aborting.
func SnapScanCovering(stx *core.SnapTx, ix *Index, lo, hi []byte, fn func(sk, pk, fields []byte) bool) error {
	if !ix.Covering() {
		return ErrNotCovering
	}
	ix.obs.snapCovering.Inc()
	var inner error
	err := stx.Scan(ix.Entries, lo, hi, func(ek, ev []byte) bool {
		pk, fields, perr := ix.SplitEntryValue(ev)
		if perr != nil {
			inner = perr
			return false
		}
		return fn(ix.SecondaryKey(ek, pk), pk, fields)
	})
	if err != nil {
		return err
	}
	return inner
}
