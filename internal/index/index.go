// Package index is Silo's secondary-index subsystem. Following §4.7 of the
// paper, a secondary index is an ordinary table whose keys are secondary
// keys and whose values are primary keys; what this package adds over the
// hand-maintained pattern is declarativity and automation:
//
//   - An Index is declared once (New: name, indexed table, uniqueness, and
//     a key spec of fixed-position row segments, see Seg) and attached to
//     its table as a core.WriteHook (Attach). The schema catalog
//     (internal/catalog) declares, names, backfills and drops indexes; this
//     package builds and maintains one. From then on every transactional
//     Put/Insert/Delete on the table expands the transaction's write-set
//     with the matching entry-table writes, so index consistency inherits
//     Silo's serializability, epoch-based durability, and recovery for
//     free — entry writes are regular logged writes.
//   - Existing rows are folded in by a transactional Backfill pass.
//   - Scan and Lookup resolve secondary keys to primary rows through a
//     core.Reader, so either transaction kind reads an index. Under a Tx
//     phantom protection covers both trees: the entry-tree scan records
//     leaf versions (node-set, §4.6) and every resolved primary read joins
//     the read-set, so a committed index scan observed a consistent
//     secondary range and its exact primary rows. Under a SnapTx entries
//     and rows are judged by the same snapshot epoch (§4.9), so the view is
//     consistent without validation.
//
// Entry encoding: a unique index stores entry key = secondary key with the
// primary key as value; a non-unique index appends the primary key to the
// entry key (secondaryKey ‖ primaryKey) so equal secondary keys coexist,
// again with the primary key as value. Scan bounds therefore compare
// against the full entry key; callers of non-unique indexes should use
// fixed-width secondary keys (as TPC-C does) or full-width bounds.
//
// A covering index (New with an include list) additionally projects
// fixed-segment row fields into its entry values, so ScanCovering can serve
// those fields without touching the primary tree at all — the index-only
// scan of §4.7's "index as ordinary table" taken to its logical end. Covering entry
// values are length-prefixed: u8 pklen ‖ pk ‖ included-fields, where the
// included fields are the concatenation of the Include segments (fixed
// total width). The maintenance hooks keep the projection current: an
// update that changes an included field but not the secondary key
// rewrites the entry value in place, inside the same transaction.
//
// Entry tables are ordinary tables: they appear in Store.Tables(), are
// checkpointed and recovered like any other, and their creation order
// matters for the log format exactly like other tables'. Do not write them
// directly, and do not register an index on an entry table.
package index

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"silo/internal/core"
)

// ErrNoIndex reports a lookup of an index name that does not exist.
var ErrNoIndex = errors.New("silo: no such index")

// keyFunc extracts a compiled spec's bytes from a row, appending them to
// dst; ok=false means the row is too short for a segment.
type keyFunc func(dst, pk, val []byte) (key []byte, ok bool)

// Index is a declared secondary index over one table.
type Index struct {
	Name    string
	On      *core.Table // the indexed (primary) table
	Entries *core.Table // the entry table: secondary key → primary key
	Unique  bool
	// Spec is the declarative segment spec the secondary key is built
	// from; the catalog compares it when the index is declared again.
	Spec []Seg
	// Include is the covering projection: fixed-position row segments whose
	// bytes ride in every entry value so ScanCovering never resolves the
	// primary tree. Nil for ordinary (non-covering) indexes.
	Include []Seg

	// key and include are Spec and Include compiled; width is the fixed
	// total byte width of the projection (sum of Include segment lengths).
	key, include keyFunc
	width        int

	// obs counts reads through the index; the catalog shares one set of
	// counters across its indexes.
	obs *Counters
}

// New declares an index named name over table on, keyed by spec: it checks
// and compiles the declaration and creates nothing — Attach does. Reads
// through the index count in ctr. The schema catalog declares each index
// exactly once per store.
//
// A non-nil include list makes the index covering: entry values
// additionally carry the concatenated include segments of the row, kept
// current by the maintenance hooks, so ScanCovering serves them without
// primary-tree resolution. A row too short for any include segment is left
// unindexed (exactly like a row too short for a key segment), keeping
// projection width fixed.
func New(ctr *Counters, on *core.Table, name string, unique bool, spec []Seg, include ...Seg) (*Index, error) {
	if on == nil {
		return nil, fmt.Errorf("index %q: no table to index", name)
	}
	key, err := compileSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("index %q: %w", name, err)
	}
	ix := &Index{Name: name, On: on, Unique: unique, Spec: slices.Clone(spec), key: key, obs: ctr}
	if include != nil {
		proj, err := compileSpec(include)
		if err != nil {
			return nil, fmt.Errorf("index %q include list: %w", name, err)
		}
		ix.Include, ix.include, ix.width = slices.Clone(include), proj, specWidth(include)
	}
	return ix, nil
}

// Attach creates the entry table (under the index's name, so
// table-creation order — and with it the log format — is explicit at the
// call site) and hooks transactional maintenance onto the indexed table.
// It does not backfill; call Backfill if that table already has rows.
func (ix *Index) Attach(s *core.Store) {
	ix.Entries = s.CreateTable(ix.Name)
	ix.On.AddWriteHook(hook{ix})
}

// Unhook withdraws the index's maintenance from its table: transactions
// that begin afterwards no longer write its entries.
func (ix *Index) Unhook() { ix.On.RemoveWriteHook(hook{ix}) }

// Key appends the secondary key the spec extracts from a row to dst; ok is
// false for a row too short for a segment, which the index leaves out.
func (ix *Index) Key(dst, pk, val []byte) (key []byte, ok bool) { return ix.key(dst, pk, val) }

// specWidth is the fixed byte width of a segment spec's concatenation.
func specWidth(segs []Seg) int {
	w := 0
	for _, s := range segs {
		w += s.Len
	}
	return w
}

// Covering reports whether entry values carry included row fields.
func (ix *Index) Covering() bool { return ix.Include != nil }

// IncludeWidth returns the fixed byte width of the covering projection
// (0 for non-covering indexes).
func (ix *Index) IncludeWidth() int { return ix.width }

// EntryKey appends the entry-table key for (sk, pk) to dst.
func (ix *Index) EntryKey(dst, sk, pk []byte) []byte {
	dst = append(dst, sk...)
	if !ix.Unique {
		dst = append(dst, pk...)
	}
	return dst
}

// entryKeyFrom builds the entry key in place from a freshly extracted
// secondary-key buffer, avoiding a second allocation on the hook path.
func (ix *Index) entryKeyFrom(sk, pk []byte) []byte {
	if ix.Unique {
		return sk
	}
	return append(sk, pk...)
}

// SecondaryKey recovers the secondary key from an entry's key and the
// primary key it maps to.
func (ix *Index) SecondaryKey(entryKey, pk []byte) []byte {
	if ix.Unique {
		return entryKey
	}
	return entryKey[:len(entryKey)-len(pk)]
}

// extract computes the secondary key and entry value for a row, appending
// them to skdst/evdst. ok=false leaves the row unindexed: the row is too
// short for a key segment or — covering only — for an include segment, so
// the projection width stays fixed.
func (ix *Index) extract(skdst, evdst, pk, val []byte) (sk, ev []byte, ok bool) {
	sk, ok = ix.key(skdst, pk, val)
	if !ok {
		return sk, evdst, false
	}
	if ix.include == nil {
		return sk, pk, true
	}
	// Covering value: u8 pklen ‖ pk ‖ included fields. Primary keys are
	// tree keys, so their length always fits the one-byte prefix.
	ev = append(evdst, byte(len(pk)))
	ev = append(ev, pk...)
	ev, ok = ix.include(ev, pk, val)
	if !ok {
		return sk, ev[:len(evdst)], false
	}
	return sk, ev, true
}

// SplitEntryValue decomposes a covering entry value into its primary key
// and included fields, validating the declared shape (u8 pklen ‖ pk ‖
// exactly IncludeWidth field bytes). A mismatch means the entry was
// written under a different include list than the index declares, or the
// entry table was written directly. For a non-covering index the value is
// the primary key and fields is nil.
func (ix *Index) SplitEntryValue(ev []byte) (pk, fields []byte, err error) {
	if !ix.Covering() {
		return ev, nil, nil
	}
	if len(ev) == 0 {
		return nil, nil, fmt.Errorf("index %q: empty covering entry value", ix.Name)
	}
	n := int(ev[0])
	if len(ev) != 1+n+ix.width {
		return nil, nil, fmt.Errorf("index %q: entry value of %d bytes does not match the declared include list (pk %d + include %d bytes)",
			ix.Name, len(ev), n, ix.width)
	}
	return ev[1 : 1+n], ev[1+n:], nil
}

// hook adapts an Index to core.WriteHook. All entry writes go through the
// triggering transaction, so they validate and commit with it. Errors are
// returned unwrapped (core sentinels must survive for retry loops and
// errors.Is); core poisons the transaction on any hook error.
type hook struct{ ix *Index }

func (h hook) OnInsert(tx *core.Tx, pk, val []byte) error {
	ix := h.ix
	sk, ev, ok := ix.extract(nil, nil, pk, val)
	if !ok {
		return nil
	}
	// A unique index refuses a second row with the same secondary key:
	// the entry insert observes the existing entry (read-set) and fails
	// with ErrKeyExists, aborting the triggering transaction.
	return tx.Insert(ix.Entries, ix.entryKeyFrom(sk, pk), ev)
}

func (h hook) OnUpdate(tx *core.Tx, pk, oldVal, newVal []byte) error {
	ix := h.ix
	// Both extractions are computed before any nested operation: the
	// old/new value slices may alias transaction buffers.
	oldSk, oldEv, oldOk := ix.extract(nil, nil, pk, oldVal)
	newSk, newEv, newOk := ix.extract(nil, nil, pk, newVal)
	if oldOk && newOk && bytes.Equal(oldSk, newSk) {
		if !ix.Covering() || bytes.Equal(oldEv, newEv) {
			return nil // entry unchanged
		}
		// Same entry key, fresher included fields: rewrite the value in
		// place so covering scans always serve current bytes. The entry
		// joins the read- and write-sets, so a covering scan racing this
		// update validates against it like any other write.
		ek := ix.EntryKey(nil, newSk, pk)
		err := tx.Put(ix.Entries, ek, newEv)
		if err == core.ErrNotFound {
			// No entry yet: this row predates the index and a concurrent
			// Backfill has not reached it. Install the fresh value
			// directly — backfillOne tolerates (and preserves) it.
			return tx.Insert(ix.Entries, ek, newEv)
		}
		if err != nil {
			return err
		}
		return nil
	}
	if oldOk {
		if err := tx.Delete(ix.Entries, ix.EntryKey(nil, oldSk, pk)); err != nil {
			return indexCorrupt(ix, err)
		}
	}
	if newOk {
		return tx.Insert(ix.Entries, ix.entryKeyFrom(newSk, pk), newEv)
	}
	return nil
}

func (h hook) OnDelete(tx *core.Tx, pk, oldVal []byte) error {
	ix := h.ix
	sk, _, ok := ix.extract(nil, nil, pk, oldVal)
	if !ok {
		return nil
	}
	if err := tx.Delete(ix.Entries, ix.entryKeyFrom(sk, pk)); err != nil {
		return indexCorrupt(ix, err)
	}
	return nil
}

// indexCorrupt classifies a failed removal of an entry that maintenance
// says must exist: ErrNotFound there means the index has diverged from its
// table (rows loaded before the index was declared without a Backfill, or
// direct writes to the entry table). Conflicts pass through untouched so
// retry loops keep working.
func indexCorrupt(ix *Index, err error) error {
	if err == core.ErrNotFound {
		return fmt.Errorf("index %q out of sync with table %q: stale row has no entry", ix.Name, ix.On.Name)
	}
	return err
}

// backfillBatch is the number of rows folded in per backfill transaction.
const backfillBatch = 256

// Backfill folds the table's existing rows into the index, in batches of
// transactions on worker w. Each batch scans a slice of the primary table
// and inserts the missing entries in the same transaction, so a row
// changed concurrently invalidates the batch (read- and node-set
// validation) and it retries; rows written after New registered the hook
// are maintained by their own transactions, and Backfill skips entries
// already present. A unique-key violation among existing rows aborts the
// backfill with an error.
//
// An existing row too short for a segment of the spec or include list
// fails the backfill with an error naming the offending key: the spec
// states the row layout, so a row that cannot satisfy it is a schema
// mismatch, not a partial-index choice — silently skipping it would leave
// the index quietly missing rows the caller believes are covered. (Rows
// written after creation keep the partial-index semantics: a too-short
// future row is simply unindexed.)
func (ix *Index) Backfill(w *core.Worker) error {
	var cursor []byte // last key processed; next batch rescans from it
	for {
		var next []byte
		err := w.Run(func(tx *core.Tx) error {
			next = nil
			lo := cursor
			if lo == nil {
				lo = []byte{0} // smallest valid key
			}
			n := 0
			var ierr error
			var skb, ekb, evb []byte
			serr := tx.Scan(ix.On, lo, nil, func(k, v []byte) bool {
				sk, ev, ok := ix.extract(skb[:0], evb[:0], k, v)
				skb = sk
				if ix.Covering() {
					evb = ev[:0]
				}
				if !ok {
					ierr = fmt.Errorf("index %q: row %x (%d value bytes) is too short for the declared spec",
						ix.Name, k, len(v))
					return false
				}
				ekb = ix.EntryKey(ekb[:0], sk, k)
				if ierr = backfillOne(tx, ix, ekb, k, ev); ierr != nil {
					return false
				}
				n++
				if n >= backfillBatch {
					next = append([]byte(nil), k...)
					return false
				}
				return true
			})
			if serr != nil {
				return serr
			}
			return ierr
		})
		if err != nil {
			return err
		}
		if next == nil {
			return nil
		}
		cursor = next
	}
}

// backfillOne inserts one entry unless an equivalent entry already exists
// (idempotent against batch-boundary rescans and concurrently maintained
// rows). An existing entry for a different primary key is a uniqueness
// violation; an existing entry for the same primary key but a different
// value (covering fields written under an older include list) is
// refreshed in place.
func backfillOne(tx *core.Tx, ix *Index, entryKey, pk, ev []byte) error {
	cur, err := tx.Get(ix.Entries, entryKey)
	switch {
	case err == core.ErrNotFound:
		return tx.Insert(ix.Entries, entryKey, ev)
	case err != nil:
		return err
	}
	curPK, _, err := ix.SplitEntryValue(cur)
	if err != nil {
		// A malformed covering value cannot name its primary key; surface
		// the shape mismatch rather than guessing.
		return err
	}
	if !bytes.Equal(curPK, pk) {
		return fmt.Errorf("index %q: unique key violated by existing rows %x and %x",
			ix.Name, curPK, pk)
	}
	if bytes.Equal(cur, ev) {
		return nil
	}
	return tx.Put(ix.Entries, entryKey, ev)
}
