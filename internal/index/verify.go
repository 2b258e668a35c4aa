package index

import (
	"bytes"
	"fmt"

	"silo/internal/btree"
	"silo/internal/core"
	"silo/internal/record"
)

// verifySampleDeep is how many entries of a non-covering index recovery
// resolves against their rows. A declaration mismatch (a covering index
// re-declared without its include list, a changed key spec) corrupts
// entries uniformly, so a bounded sample detects it deterministically
// without making recovery pay one primary point read per entry of every
// plain index; covering indexes are resolved in full, because their
// headline guarantee is that every projected byte survives replay.
const verifySampleDeep = 128

// VerifyEntries audits the index's entries against its current
// declaration and its primary table, walking both trees directly (no
// transactions — the caller must be single-threaded, which is exactly
// recovery's situation). Recovery runs it after log replay, before the
// store takes traffic: replayed entry values were written under the
// declaration in force when the log was produced, so a covering index
// re-declared with a different include list — or with none at all, or a
// non-covering index re-declared as covering — surfaces here as a shape
// or content mismatch naming the index, instead of silently serving
// misaligned bytes or resolving garbage primary keys. Every entry gets
// the cheap shape validation; row resolution and recomputation run for
// every entry of a covering index but only a verifySampleDeep-entry
// prefix of a non-covering one (declaration mismatches are uniform, so
// the sample suffices, and recovery stays cheap for big plain indexes).
func (ix *Index) VerifyEntries() error {
	var fail error
	var rb, rowb, skb, evb []byte
	deep := 0
	ix.Entries.Tree.Scan([]byte{0}, nil, nil, func(ek []byte, rec *record.Record) bool {
		val, w := rec.Read(rb)
		rb = val[:0]
		if w.Absent() {
			return true
		}
		pk, _, err := ix.SplitEntryValue(val)
		if err != nil {
			fail = fmt.Errorf("%w — was the index re-declared with a different include list than the one the log was written under?", err)
			return false
		}
		// A non-covering declaration reads the whole value as the primary
		// key. A covering-encoded value (length-prefixed, projection
		// appended) read that way is not a usable key — catch the obvious
		// impossibilities before they reach the tree, with the
		// re-declaration hint.
		if len(pk) == 0 || len(pk) > btree.MaxKeyLen || (!ix.Unique && len(pk) >= len(ek)) {
			fail = fmt.Errorf("index %q: recovered entry %x carries a value that cannot be its primary key — was a covering index re-declared without its include list?",
				ix.Name, ek)
			return false
		}
		if !ix.Covering() && deep >= verifySampleDeep {
			return true // shape-checked only; deep sample exhausted
		}
		deep++
		rrec, _, _ := ix.On.Tree.Get(pk)
		if rrec == nil {
			fail = fmt.Errorf("index %q: recovered entry %x resolves to no row %x in table %q%s",
				ix.Name, ek, pk, ix.On.Name, redeclareHint(ix))
			return false
		}
		row, rw := rrec.Read(rowb)
		rowb = row[:0]
		if rw.Absent() {
			fail = fmt.Errorf("index %q: recovered entry %x resolves to a deleted row %x in table %q",
				ix.Name, ek, pk, ix.On.Name)
			return false
		}
		sk, ev, ok := ix.extract(skb[:0], evb[:0], pk, row)
		skb = sk[:0]
		if !ok {
			fail = fmt.Errorf("index %q: recovered entry %x covers row %x that the declared spec does not index",
				ix.Name, ek, pk)
			return false
		}
		if ix.Covering() {
			evb = ev[:0]
		}
		if !bytes.Equal(sk, ix.SecondaryKey(ek, pk)) {
			fail = fmt.Errorf("index %q: recovered entry %x does not match the secondary key recomputed from row %x",
				ix.Name, ek, pk)
			return false
		}
		if ix.Covering() && !bytes.Equal(ev, val) {
			fail = fmt.Errorf("index %q: recovered entry %x carries included fields that differ from row %x — was the index re-declared with a different include list?",
				ix.Name, ek, pk)
			return false
		}
		return true
	})
	return fail
}

// redeclareHint suffixes a non-covering index's resolution failure with
// the likeliest cause: covering values replayed into a non-covering
// declaration mostly look like garbage primary keys.
func redeclareHint(ix *Index) string {
	if ix.Covering() {
		return ""
	}
	return " — was a covering index re-declared without its include list?"
}

// VerifyCoveringFresh re-derives the included fields of every covering
// entry in [lo, hi) from its primary row, inside tx, and fails on the
// first divergence — the freshness half of the covering contract (the
// maintenance hooks must rewrite entries whenever included fields
// change), checkable live by consistency audits and hammer tests. A row
// that vanishes between the covering scan and its re-read is the usual
// two-tree race and maps to ErrConflict so the caller's retry loop
// handles it; only a divergence observed by a transaction that then
// commits is a real maintenance bug.
func VerifyCoveringFresh(tx *core.Tx, ix *Index, lo, hi []byte) error {
	if !ix.Covering() {
		return nil
	}
	var row, pb []byte
	var fail error
	if err := ScanCovering(tx, ix, lo, hi, 0, func(_, pk, fields []byte) bool {
		row, fail = tx.GetAppend(ix.On, pk, row[:0])
		if fail == core.ErrNotFound {
			fail = core.ErrConflict
		}
		if fail != nil {
			return false
		}
		want, ok := ix.include(pb[:0], pk, row)
		pb = want
		if !ok || !bytes.Equal(want, fields) {
			fail = fmt.Errorf("index %q: covering fields %x for row %x are stale (want %x)",
				ix.Name, fields, pk, want)
			return false
		}
		return true
	}); err != nil {
		return err
	}
	return fail
}
