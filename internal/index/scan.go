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

// ErrDanglingEntry reports an index entry whose primary row does not exist
// in a transaction whose reads validate: the index is damaged, and a retry
// would meet the same entry.
var ErrDanglingEntry = errors.New("silo: index entry has no primary row")

// Every read here goes through a core.Reader, so the one body serves both
// transaction kinds. Under a *core.Tx the entry-tree leaves join the
// node-set and every entry and resolved row joins the read-set, so a
// concurrent insert, delete or update anywhere in the scanned secondary
// range — or of any resolved row — aborts the transaction at commit
// (phantom-safe on both trees). Under a *core.SnapTx entries and rows are
// read at the same snapshot epoch: consistent without validation, never
// aborting.
//
// The Reader's methods take callbacks, and a closure handed to an interface
// method escapes; the callbacks are therefore method values bound once on
// pooled scratch, and the caller's fn is only ever called from this
// package's own loops, after the Reader call that produced its rows has
// returned — so it stays on the caller's stack, and may itself read
// through the Reader (the slices it is handed live in the scratch).

// Scan visits index entries with entry keys in [lo, hi) in order, resolving
// each to its primary row and calling fn(secondaryKey, primaryKey, value);
// fn returning false stops the scan. It collects up to max entries (0 means
// the whole range) and then resolves them: with ordered multi-get descents
// over the primary tree (one descent per leaf run), or with one point read
// per entry when a sample of the collected primary keys says they are
// scattered and share no descents. A caller that wants a bounded prefix
// passes max; fn returning false stops emission, not collection. All three
// slices are valid only during the callback.
//
// An entry whose row is missing fails a *core.Tx scan (see rowMissing). fn
// has then seen the entries before it, which a re-executed transaction body
// must discard (as any output of an attempt that fails commit).
func Scan(r core.Reader, ix *Index, lo, hi []byte, max int, fn func(sk, pk, val []byte) bool) error {
	snap := ix.obs.count(r, modeBatched, modeSnapshot)
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.walk(r, ix, lo, hi, max); err != nil {
		return err
	}
	n := len(sc.ents)
	if n == 0 {
		return nil
	}
	if testHookAfterCollect != nil {
		testHookAfterCollect()
	}

	// Scattered primary keys share no sorted descents: resolve them one
	// point read per entry instead.
	scattered := !sc.clusteredSample()
	if scattered && !snap {
		ix.obs.modes[modeStreamed].Inc()
	}
	// Resolve window by window, so a whole-range scan stages a bounded
	// number of rows at a time.
	for from := 0; from < n; from += resolveWindow {
		to := min(from+resolveWindow, n)
		if err := sc.resolve(r, ix, from, to, scattered); err != nil {
			return err
		}
		for i := from; i < to; i++ {
			ek, pk, _ := sc.entry(i)
			at := sc.valAt[i-from]
			if at[0] < 0 {
				if err := ix.rowMissing(snap); err != nil {
					return err
				}
				continue
			}
			if !fn(ix.SecondaryKey(ek, pk), pk, sc.vals[at[0]:at[1]]) {
				return nil
			}
		}
	}
	return nil
}

// ScanCovering visits covering-index entries in [lo, hi), serving the
// included row fields straight from the entry values: fn receives
// (secondaryKey, primaryKey, includedFields) and the primary tree is
// never touched. It collects up to max entries (0 means the whole range)
// before the first call to fn. Under a *core.Tx phantom safety comes from
// node-set validation on the index tree alone, and freshness from the
// entries themselves joining the read-set — the maintenance hooks rewrite
// an entry whenever an included field changes, so a committed covering
// scan observed exactly the fields the serial order prescribes. Returns
// ErrNotCovering for an index declared without an include list. Slices
// are valid only during the callback.
func ScanCovering(r core.Reader, ix *Index, lo, hi []byte, max int, fn func(sk, pk, fields []byte) bool) error {
	if !ix.Covering() {
		return ErrNotCovering
	}
	ix.obs.count(r, modeCovering, modeSnapshotCovering)
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.walk(r, ix, lo, hi, max); err != nil {
		return err
	}
	for i := range sc.ents {
		ek, pk, fields := sc.entry(i)
		if !fn(ix.SecondaryKey(ek, pk), pk, fields) {
			break
		}
	}
	return nil
}

// ScanEntries visits index entries in [lo, hi) without resolving primary
// rows, calling fn(secondaryKey, primaryKey) once the whole range is
// collected. Under a *core.Tx it is phantom-safe on the entry tree only —
// cheaper than Scan when the primary keys themselves are the answer (the
// caller reads whichever rows it needs, which then join the read-set
// individually). Both slices are valid only during the callback.
func ScanEntries(r core.Reader, ix *Index, lo, hi []byte, fn func(sk, pk []byte) bool) error {
	ix.obs.modes[modeEntries].Inc()
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.walk(r, ix, lo, hi, 0); err != nil {
		return err
	}
	for i := range sc.ents {
		ek, pk, _ := sc.entry(i)
		if !fn(ix.SecondaryKey(ek, pk), pk) {
			break
		}
	}
	return nil
}

// Lookup resolves a secondary key on a unique index to its primary key and
// row value (ErrNotFound if absent; under a *core.Tx the observation is
// registered, so the absence is validated at commit). The returned slices
// are owned by the caller.
func Lookup(r core.Reader, ix *Index, sk []byte) (pk, val []byte, err error) {
	if !ix.Unique {
		return nil, nil, ErrNotUnique
	}
	ix.obs.lookups.Inc()
	ev, err := r.GetAppend(ix.Entries, sk, nil)
	if err != nil {
		return nil, nil, err
	}
	pk, _, err = ix.SplitEntryValue(ev)
	if err != nil {
		return nil, nil, err
	}
	val, err = r.GetAppend(ix.On, pk, nil)
	if err == core.ErrNotFound {
		_, snap := r.(*core.SnapTx)
		if err := ix.rowMissing(snap); err != nil {
			return nil, nil, err
		}
		return nil, nil, core.ErrNotFound
	}
	if err != nil {
		return nil, nil, err
	}
	return pk, val, nil
}

// rowMissing is the resolver's one answer to an entry whose primary row is
// not there. Under a serializable transaction it is ErrDanglingEntry, which
// the transaction's epilogue turns into ErrConflict and a retry when a
// writer got between the two trees and the reads fail validation. A snapshot
// cannot see that race — maintenance is transactional, so an entry visible
// at the snapshot has its row visible too — and a missing row can only
// mean the index predates its table's rows (no Backfill): the entry is
// skipped (nil).
func (ix *Index) rowMissing(snap bool) error {
	if snap {
		return nil
	}
	ix.obs.lookupConflicts.Inc()
	return ErrDanglingEntry
}

// testHookAfterCollect, when non-nil, runs between Scan's entry collection
// and its primary resolution. Tests use it to commit a concurrent write
// deterministically inside that window and assert the OCC machinery aborts
// the scanning transaction rather than returning a torn row.
var testHookAfterCollect func()

// resolveWindow is how many collected entries Scan resolves and stages
// before it emits them.
const resolveWindow = 256

// Scratch given back to the pool is bounded, as a worker's read-set is
// (core's maxKeyArena and maxReadSet): a whole-index scan must not pin its
// collection.
const (
	maxPooledBytes   = 1 << 20 // collected keys plus staged rows
	maxPooledEntries = 1 << 14
)

// scanEnt is one collected entry; offsets index the collection buffer,
// where its entry key, primary key and (covering indexes) included fields
// follow the previous entry's.
type scanEnt struct {
	ekEnd, pkEnd, end int
}

// scanScratch is the reusable working state of one index read, pooled so
// steady-state scans allocate nothing of their own: the collection buffer,
// the sort permutation, the sorted key views and the staged rows all reuse
// prior capacity, and the two Reader callbacks are bound once.
type scanScratch struct {
	buf   []byte    // collected entries, concatenated
	ents  []scanEnt // offsets into buf
	order []int     // the window's entries in primary-key order (multi-get)
	keys  [][]byte  // the window's primary keys in that order (views into buf)
	vals  []byte    // the window's staged row bytes
	valAt [][2]int  // per window entry: [start, end) into vals, or -1 if missing

	// Inputs and results of the bound callbacks for the call in progress.
	ix     *Index
	max    int
	sorted bool  // primary keys collected in ascending order so far
	from   int   // first entry of the window being resolved
	err    error // failure raised inside a callback

	collectFn func(ek, ev []byte) bool
	stageFn   func(i int, val []byte, err error) bool
}

var scratchPool = sync.Pool{New: func() any {
	sc := new(scanScratch)
	sc.collectFn = sc.collect
	sc.stageFn = sc.stage
	return sc
}}

func getScratch() *scanScratch { return scratchPool.Get().(*scanScratch) }

func putScratch(sc *scanScratch) {
	sc.ix = nil
	if cap(sc.buf)+cap(sc.vals) <= maxPooledBytes && cap(sc.ents) <= maxPooledEntries {
		scratchPool.Put(sc)
	}
}

// walk is the one entry-tree walk: it collects up to max entries (0 for
// all) of [lo, hi).
func (sc *scanScratch) walk(r core.Reader, ix *Index, lo, hi []byte, max int) error {
	sc.ix, sc.max, sc.sorted, sc.err = ix, max, true, nil
	sc.buf, sc.ents = sc.buf[:0], sc.ents[:0]
	if err := r.Scan(ix.Entries, lo, hi, sc.collectFn); err != nil {
		return err
	}
	return sc.err
}

// collect copies one entry out of the reader's buffers, which the next
// read reuses.
func (sc *scanScratch) collect(ek, ev []byte) bool {
	pk, fields, err := sc.ix.SplitEntryValue(ev)
	if err != nil {
		sc.err = err
		return false
	}
	sc.buf = append(sc.buf, ek...)
	ekEnd := len(sc.buf)
	sc.buf = append(sc.buf, pk...)
	pkEnd := len(sc.buf)
	sc.buf = append(sc.buf, fields...)
	if n := len(sc.ents); sc.sorted && n > 0 {
		sc.sorted = bytes.Compare(sc.pkOf(n-1), pk) <= 0
	}
	sc.ents = append(sc.ents, scanEnt{ekEnd: ekEnd, pkEnd: pkEnd, end: len(sc.buf)})
	return sc.max <= 0 || len(sc.ents) < sc.max
}

// entry returns collected entry i's entry key, primary key and included
// fields (empty for a non-covering index).
func (sc *scanScratch) entry(i int) (ek, pk, fields []byte) {
	start := 0
	if i > 0 {
		start = sc.ents[i-1].end
	}
	e := sc.ents[i]
	return sc.buf[start:e.ekEnd], sc.buf[e.ekEnd:e.pkEnd], sc.buf[e.pkEnd:e.end]
}

func (sc *scanScratch) pkOf(i int) []byte {
	return sc.buf[sc.ents[i].ekEnd:sc.ents[i].pkEnd]
}

// resolve reads the rows of entries [from, to) — with one point read
// each when scattered, else with one ordered multi-get — and stages them
// in vals; valAt[i-from] locates entry i's row, or is -1 when the row is
// missing — what that means is rowMissing's call, made when the entry is
// emitted.
func (sc *scanScratch) resolve(r core.Reader, ix *Index, from, to int, scattered bool) error {
	n := to - from
	if cap(sc.valAt) < n {
		sc.valAt = make([][2]int, n)
	}
	sc.valAt = sc.valAt[:n]
	for i := range sc.valAt {
		sc.valAt[i] = [2]int{-1, -1}
	}
	sc.vals, sc.from, sc.err = sc.vals[:0], from, nil
	if scattered {
		for i := from; i < to; i++ {
			v, err := r.GetAppend(ix.On, sc.pkOf(i), sc.vals)
			if err == core.ErrNotFound {
				continue
			}
			if err != nil {
				return err
			}
			sc.valAt[i-from] = [2]int{len(sc.vals), len(v)}
			sc.vals = v
		}
		return nil
	}
	sc.order = sc.order[:0]
	for i := from; i < to; i++ {
		sc.order = append(sc.order, i)
	}
	if !sc.sorted {
		slices.SortFunc(sc.order, func(a, b int) int {
			return bytes.Compare(sc.pkOf(a), sc.pkOf(b))
		})
	}
	sc.keys = sc.keys[:0]
	for _, e := range sc.order {
		sc.keys = append(sc.keys, sc.pkOf(e))
	}
	if err := r.GetBatch(ix.On, sc.keys, sc.stageFn); err != nil {
		return err
	}
	return sc.err
}

func (sc *scanScratch) stage(i int, val []byte, err error) bool {
	if err == core.ErrNotFound {
		return true
	}
	if err != nil {
		sc.err = err
		return false
	}
	start := len(sc.vals)
	sc.vals = append(sc.vals, val...)
	sc.valAt[sc.order[i]-sc.from] = [2]int{start, len(sc.vals)}
	return true
}

// clusterSample bounds how many collected pks clusteredSample inspects.
const clusterSample = 16

// clusteredSample guesses whether the collected primary-key set clusters
// in the primary tree, from the shared prefix of its first clusterSample
// keys: clustered ranges (TPC-C composites, sequential ids) share at least
// half of their shortest sampled key, while hash-like pks scattered across
// the key space share almost none. Batches too small to amortize a wrong
// guess are always called clustered.
func (sc *scanScratch) clusteredSample() bool {
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
