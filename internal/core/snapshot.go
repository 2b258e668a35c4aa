package core

import (
	"silo/internal/btree"
	"silo/internal/record"
)

// SnapTx is a read-only snapshot transaction (§4.9). It reads the database
// as of its worker's local snapshot epoch se_w: for each record, the most
// recent version with epoch strictly below se_w — the final state of the
// snapshot group that ended at that boundary, which is exactly what
// writers preserve in version chains (see snapshotVersion). Because the
// snapshot is consistent and never modified, snapshot transactions commit
// without checking and never abort; they maintain no read-, write-, or
// node-sets and write no shared memory at all.
type SnapTx struct {
	w      *Worker
	sew    uint64
	rbuf   []byte
	active bool
}

// Epoch returns the snapshot epoch this transaction reads at.
func (stx *SnapTx) Epoch() uint64 { return stx.sew }

// Worker returns the executing worker.
func (stx *SnapTx) Worker() *Worker { return stx.w }

func (stx *SnapTx) finish() {
	stx.active = false
	stx.w.finishTx()
}

// snapshotVersion resolves the version of rec visible at epoch sew,
// returning its value (appended to buf) and whether the key is visible
// (present and not absent); a miss returns buf emptied, so the caller's
// read buffer survives it. The current version's word may change
// concurrently and is read with the validation protocol; superseded chain
// versions are immutable.
//
// Visibility is epoch < sew — the final state of the snapshot group that
// ended at the boundary sew — not epoch ≤ sew. Writers preserve an old
// version only when a write crosses a snapshot-group boundary
// (installWrite), so chains hold exactly each group's final version: a
// version with epoch == sew sits inside the group [sew, sew+k) that may
// still be receiving writes, and an epoch-(sew+1) overwrite would replace
// it without preserving it. Treating such versions as visible tears the
// snapshot (one record serving a mid-group version, another its
// pre-group one).
func snapshotVersion(rec *record.Record, sew uint64, buf []byte) (val []byte, visible bool) {
	// Fast path: the current version may already be old enough.
	v, w := rec.Read(buf)
	if w.Epoch() < sew {
		if w.Absent() || w.TID() == 0 {
			return buf[:0], false
		}
		return v, true
	}
	// Walk the version chain. Each linked version is immutable; its word
	// and data need no validation.
	for p := rec.Prev(); p != nil; p = p.Prev() {
		pw := p.Word()
		if pw.Epoch() < sew {
			if pw.Absent() || pw.TID() == 0 {
				return buf[:0], false
			}
			return append(buf[:0], p.DataUnsafe()...), true
		}
	}
	return buf[:0], false
}

// Get returns the value for key at the snapshot epoch, or ErrNotFound. The
// returned slice is owned by the caller.
func (stx *SnapTx) Get(t *Table, key []byte) ([]byte, error) {
	return stx.GetAppend(t, key, nil)
}

// GetAppend is Get appending the value to buf instead of allocating,
// returning the extended buffer.
func (stx *SnapTx) GetAppend(t *Table, key, buf []byte) ([]byte, error) {
	if !stx.active {
		return buf, ErrTxDone
	}
	if !validKey(key) {
		return buf, ErrKeyInvalid
	}
	rec, _, _ := t.Tree.Get(key)
	if rec == nil {
		return buf, ErrNotFound
	}
	val, ok := snapshotVersion(rec, stx.sew, stx.rbuf)
	stx.rbuf = val[:0]
	if !ok {
		return buf, ErrNotFound
	}
	return append(buf, val...), nil
}

// GetBatch is Tx.GetBatch at the snapshot epoch: keys sorted ascending, fn
// called once per key in order with the value (valid only during the
// callback) or ErrNotFound, one tree descent per leaf run. Nothing is
// recorded.
func (stx *SnapTx) GetBatch(t *Table, keys [][]byte, fn func(i int, val []byte, err error) bool) error {
	if !stx.active {
		return ErrTxDone
	}
	if err := checkBatch(keys); err != nil {
		return err
	}
	t.Tree.GetBatch(keys, func(i int, rec *record.Record, _ *btree.Node, _ uint64) bool {
		if rec == nil {
			return fn(i, nil, ErrNotFound)
		}
		val, ok := snapshotVersion(rec, stx.sew, stx.rbuf)
		stx.rbuf = val[:0]
		if !ok {
			return fn(i, nil, ErrNotFound)
		}
		return fn(i, val, nil)
	})
	return nil
}

// SnapshotScanAt visits keys in [lo, hi) of t at snapshot epoch sew,
// calling fn with each visible key and value (valid only during the
// callback). Unlike SnapTx.Scan it keeps no per-worker state, so any
// number of goroutines may scan disjoint ranges concurrently — this is
// what partitioned parallel checkpoints are built on.
//
// The caller must keep sew pinned against reclamation for the duration:
// some snapshot transaction with Epoch() == sew must remain active (its
// worker's epoch slot holds the snapshot reclamation horizon below sew).
// Scanning at an unpinned epoch may miss versions that were reclaimed.
func SnapshotScanAt(t *Table, sew uint64, lo, hi []byte, fn func(key, value []byte) bool) error {
	var rbuf []byte
	return snapshotScan(t, sew, lo, hi, &rbuf, fn)
}

// Scan visits keys in [lo, hi) at the snapshot epoch. Values are valid only
// during the callback. No node versions are recorded: snapshot scans cannot
// be invalidated.
func (stx *SnapTx) Scan(t *Table, lo, hi []byte, fn func(key, value []byte) bool) error {
	if !stx.active {
		return ErrTxDone
	}
	return snapshotScan(t, stx.sew, lo, hi, &stx.rbuf, fn)
}

// snapshotScan is the one snapshot range walk; it reads through *rbuf.
func snapshotScan(t *Table, sew uint64, lo, hi []byte, rbuf *[]byte, fn func(key, value []byte) bool) error {
	if !validKey(lo) || (hi != nil && len(hi) > btree.MaxKeyLen) {
		return ErrKeyInvalid
	}
	t.Tree.Scan(lo, hi, nil, func(key []byte, rec *record.Record) bool {
		val, ok := snapshotVersion(rec, sew, *rbuf)
		*rbuf = val[:0]
		if !ok {
			return true
		}
		return fn(key, val)
	})
	return nil
}
