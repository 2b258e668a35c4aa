// Package index is Silo's secondary-index subsystem. Following §4.7 of the
// paper, a secondary index is an ordinary table whose keys are secondary
// keys and whose values are primary keys; what this package adds over the
// hand-maintained pattern is declarativity and automation:
//
//   - An Index is declared once (name, indexed table, uniqueness, a KeyFunc
//     extracting the secondary key from a row) and registered as a
//     core.WriteHook on its table. From then on every transactional
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

	"silo/internal/core"
)

// ErrNoIndex reports a lookup of an index name that does not exist.
var ErrNoIndex = errors.New("silo: no such index")

// KeyFunc extracts the secondary key for a row, appending it to dst and
// returning the extended buffer. Returning ok=false excludes the row from
// the index (a partial index). The function must be pure: the same
// (pk, val) must always yield the same key, and it must not retain pk/val.
type KeyFunc func(dst, pk, val []byte) (key []byte, ok bool)

// Index is a declared secondary index over one table.
type Index struct {
	Name    string
	On      *core.Table // the indexed (primary) table
	Entries *core.Table // the entry table: secondary key → primary key
	Unique  bool
	Key     KeyFunc
	// Spec is the declarative segment spec Key was compiled from (nil for
	// an index declared with New and a Go KeyFunc). Registries use it to
	// decide whether a re-creation request matches the existing
	// declaration.
	Spec []Seg
	// Include is the covering projection: fixed-position row segments whose
	// bytes ride in every entry value so ScanCovering never resolves the
	// primary tree. Nil for ordinary (non-covering) indexes.
	Include []Seg

	// include is the compiled projection extractor; width is the fixed
	// total byte width of the projection (sum of Include segment lengths).
	include KeyFunc
	width   int

	// obs counts scans by resolution mode; Registry.CollectObs aggregates
	// it across the registry's indexes.
	obs indexObs
}

// New declares an index named name over table on: it creates the entry
// table (under the index's name, so table-creation order — and with it the
// log format — is explicit at the call site) and registers transactional
// maintenance. It does not backfill; call Backfill if on already has rows.
// Declare each index exactly once per store, before the table takes
// writes that should be indexed.
//
// A non-nil include list makes the index covering: entry values
// additionally carry the concatenated include segments of the row, kept
// current by the maintenance hooks, so ScanCovering serves them without
// primary-tree resolution. A row too short for any include segment is left
// unindexed (exactly like a row too short for a declarative key segment),
// keeping projection width fixed.
func New(s *core.Store, on *core.Table, name string, unique bool, key KeyFunc, include ...Seg) (*Index, error) {
	ix := &Index{Name: name, On: on, Unique: unique, Key: key}
	if include != nil {
		proj, err := CompileSpec(include)
		if err != nil {
			return nil, fmt.Errorf("index %q include list: %w", name, err)
		}
		ix.Include, ix.include, ix.width = append([]Seg(nil), include...), proj, specWidth(include)
	}
	ix.Entries = s.CreateTable(name)
	on.AddWriteHook(hook{ix})
	return ix, nil
}

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
// them to skdst/evdst. ok=false leaves the row unindexed: the key
// extractor declined, or — covering only — the row is too short for an
// include segment (mirroring declarative key-segment semantics, so the
// projection width stays fixed).
func (ix *Index) extract(skdst, evdst, pk, val []byte) (sk, ev []byte, ok bool) {
	sk, ok = ix.Key(skdst, pk, val)
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
// For an index declared by a segment spec (Spec non-nil), an existing row
// too short for a spec segment fails the backfill with an error naming the
// offending key: a declarative declaration states the row layout, so a row
// that cannot satisfy it is a schema mismatch, not a partial-index choice
// — silently skipping it would leave the index quietly missing rows the
// caller believes are covered. (Rows written after creation keep the
// partial-index semantics: a too-short future row is simply unindexed.)
// An index declared with New and a Go KeyFunc keeps skip semantics
// throughout — a KeyFunc declining a row is an intentional predicate,
// indistinguishable from a length check.
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
				if !ok && ix.Spec != nil {
					ierr = fmt.Errorf("index %q: row %x (%d value bytes) is too short for the declared spec",
						ix.Name, k, len(v))
					return false
				}
				if ok {
					ekb = ix.EntryKey(ekb[:0], sk, k)
					if ierr = backfillOne(tx, ix, ekb, k, ev); ierr != nil {
						return false
					}
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
