package core

import (
	"silo/internal/record"
)

// Epoch-based garbage collection (§4.8, §4.9).
//
// Workers register garbage in per-worker lists together with a reclamation
// epoch — the epoch after which no thread (or snapshot) could possibly
// access the object — and reap ripe items themselves between requests,
// which avoids helper threads and cross-core data movement.
//
// Two lists with two horizons:
//
//   - snapList: superseded record versions kept for snapshot transactions.
//     An item registered with epoch snap(E) may be freed once the snapshot
//     reclamation epoch (min se_w − 1) reaches it.
//
//   - unhookList: absent records (committed deletes and aborted insert
//     placeholders) that must eventually be removed from the tree. A
//     delete's unhook waits for the snapshot reclamation epoch (snapshot
//     transactions must still find the linked older versions); an aborted
//     placeholder waits only for the tree reclamation epoch (min e_w − 1).
//
// In Go "freeing" means dropping the last reference and letting the runtime
// reclaim the memory (plus returning data buffers to the worker's arena);
// the bookkeeping — what is retained, how many bytes, and when it becomes
// reclaimable — is exactly the paper's, and is what §5.6 measures.

type gcItem struct {
	epoch     uint64 // reclamation epoch
	snapBased bool   // true: compare against snapshot horizon; false: tree horizon
	table     *Table
	key       []byte
	rec       *record.Record
	head      *record.Record // snapshot version: the live record rec hangs from
	expect    uint64         // pure TID the absent record must still carry to unhook
	bytes     int
}

type gcState struct {
	snapList   []gcItem
	unhookList []gcItem
}

// registerSnapshotVersion schedules the release of rec, a superseded
// version just linked behind the live record head, and counts it into o.
func (g *gcState) registerSnapshotVersion(o *workerObs, head, rec *record.Record, reclaimEpoch uint64) {
	n := rec.DataLen() + recordOverheadBytes
	g.snapList = append(g.snapList, gcItem{
		epoch: reclaimEpoch,
		rec:   rec,
		head:  head,
		bytes: n,
	})
	o.snapBytes.Add(uint64(n))
	o.snapCreated.Inc()
}

// registerUnhook schedules the removal of an absent record from the tree.
// expect is the pure TID the record must still carry when the unhook runs;
// if it changed, a later transaction superseded the record and owns its
// cleanup (§4.9).
func (g *gcState) registerUnhook(t *Table, key []byte, rec *record.Record, expect uint64, reclaimEpoch uint64, snapBased bool) {
	g.unhookList = append(g.unhookList, gcItem{
		epoch:     reclaimEpoch,
		snapBased: snapBased,
		table:     t,
		key:       append([]byte(nil), key...),
		rec:       rec,
		expect:    expect,
	})
}

// recordOverheadBytes is a version's cost beyond its data: the 24-byte
// record and its value buffer's 4-byte header (the paper reports 32 bytes
// excluding data).
const recordOverheadBytes = 28

// reap frees every ripe item. Items are registered in non-decreasing epoch
// order per worker, so reaping pops prefixes. Only the worker that
// registered an item reaps it, so its shard's retained bytes never go
// negative.
func (g *gcState) reap(w *Worker) {
	snapHorizon := w.store.epochs.SnapshotReclamation()
	treeHorizon := w.store.epochs.TreeReclamation()
	o := w.obs

	i := 0
	var freed uint64
	for ; i < len(g.snapList) && g.snapList[i].epoch <= snapHorizon; i++ {
		it := &g.snapList[i]
		freed += uint64(it.bytes)
		// Dropping the list's pointer frees nothing while the version is
		// still linked behind its live record; cut the chain there.
		it.head.CutVersion(it.rec)
	}
	if i > 0 {
		g.snapList = sliceDrop(g.snapList, i)
		o.snapBytes.Add(-freed)
		o.snapReaped.Add(uint64(i))
	}

	i = 0
	var done uint64
	for ; i < len(g.unhookList); i++ {
		it := &g.unhookList[i]
		horizon := treeHorizon
		if it.snapBased {
			horizon = snapHorizon
		}
		if it.epoch > horizon {
			break
		}
		if unhook(it) {
			done++
		}
	}
	if i > 0 {
		g.unhookList = sliceDrop(g.unhookList, i)
		o.unhooksDone.Add(done)
		o.unhooksSkipped.Add(uint64(i) - done)
	}
}

// unhook removes an absent record from its tree if it is still the latest
// version for its key, and reports whether it did. The record is locked for
// the duration so the removal cannot race with a committing insert that
// would supersede it; on success the latest bit is cleared, so any in-flight
// transaction that read the absent record fails its Phase 2 validation
// rather than committing against a record no longer reachable from the tree.
func unhook(it *gcItem) bool {
	rec := it.rec
	word, ok := rec.TryLock()
	if !ok {
		// A committing transaction holds the record; it is superseding the
		// absent version, which transfers cleanup responsibility to it.
		return false
	}
	if !word.Absent() || !word.Latest() || word.TID() != it.expect {
		// Superseded (or re-deleted with a newer registration): not ours.
		rec.Unlock(word)
		return false
	}
	it.table.Tree.RemoveIf(it.key, func(r *record.Record) bool { return r == rec })
	rec.Unlock(word.WithLatest(false))
	return true
}

// sliceDrop removes the first n items, reusing the backing array.
func sliceDrop(s []gcItem, n int) []gcItem {
	m := copy(s, s[n:])
	for i := m; i < len(s); i++ {
		s[i] = gcItem{}
	}
	return s[:m]
}
