package index

import (
	"bytes"
	"fmt"

	"silo/internal/btree"
	"silo/internal/core"
	"silo/internal/record"
)

// verifySampleDeep is how many entries of a non-covering index
// VerifyEntries resolves against their rows: entries written under the
// wrong declaration are wrong uniformly, so a bounded sample finds them
// without one primary point read per entry of every plain index; covering
// indexes are resolved in full, because their headline guarantee is that
// every projected byte survives replay.
const verifySampleDeep = 128

// VerifyEntries audits the index's entries against its declaration and
// its primary table, walking both trees directly (no transactions — the
// caller must be single-threaded, as a just-recovered store is). It is the
// offline oracle the simulation harness runs over every recovered index:
// every entry gets the cheap shape validation (a covering value that does
// not split, a primary key the tree cannot hold); row resolution and
// recomputation run for every entry of a covering index but only a
// verifySampleDeep-entry prefix of a non-covering one.
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
			fail = err
			return false
		}
		// A non-covering declaration reads the whole value as the primary
		// key; catch the impossible ones before they reach the tree.
		if len(pk) == 0 || len(pk) > btree.MaxKeyLen || (!ix.Unique && len(pk) >= len(ek)) {
			fail = fmt.Errorf("index %q: recovered entry %x carries a value that cannot be its primary key",
				ix.Name, ek)
			return false
		}
		if !ix.Covering() && deep >= verifySampleDeep {
			return true // shape-checked only; deep sample exhausted
		}
		deep++
		rrec, _, _ := ix.On.Tree.Get(pk)
		if rrec == nil {
			fail = fmt.Errorf("index %q: recovered entry %x resolves to no row %x in table %q",
				ix.Name, ek, pk, ix.On.Name)
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
			fail = fmt.Errorf("index %q: recovered entry %x carries included fields that differ from row %x",
				ix.Name, ek, pk)
			return false
		}
		return true
	})
	return fail
}

// VerifyCoveringFresh re-derives the included fields of every covering
// entry in [lo, hi) from its primary row, inside tx, and fails on the
// first divergence — the freshness half of the covering contract (the
// maintenance hooks must rewrite entries whenever included fields
// change), checkable live by consistency audits and hammer tests. A row
// missing at its re-read is ErrDanglingEntry, which the transaction's
// epilogue turns into ErrConflict when it was the usual two-tree race;
// only a divergence observed by a transaction that then commits is a real
// maintenance bug.
func VerifyCoveringFresh(tx *core.Tx, ix *Index, lo, hi []byte) error {
	if !ix.Covering() {
		return nil
	}
	var row, pb []byte
	var fail error
	if err := ScanCovering(tx, ix, lo, hi, 0, func(_, pk, fields []byte) bool {
		row, fail = tx.GetAppend(ix.On, pk, row[:0])
		if fail == core.ErrNotFound {
			fail = ErrDanglingEntry
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
