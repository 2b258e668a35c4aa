package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"silo/internal/obs"
)

// gcCounts are the garbage collector's families in one snapshot.
type gcCounts struct {
	created, reaped, retained, unhooked, skipped uint64
}

func collectGC(s *Store) gcCounts {
	var snap obs.Snapshot
	s.CollectObs(&snap)
	return gcCounts{
		created:  snap.Value("silo_core_snapshot_versions_total", "created"),
		reaped:   snap.Value("silo_core_snapshot_versions_total", "reaped"),
		retained: snap.Value("silo_core_snapshot_bytes_retained", ""),
		unhooked: snap.Value("silo_core_unhooks_total", "done"),
		skipped:  snap.Value("silo_core_unhooks_total", "skipped"),
	}
}

// PendingGarbage reports the worker's registered, not yet reaped garbage
// items.
func (w *Worker) PendingGarbage() (snapshotVersions, unhooks int) {
	return len(w.gc.snapList), len(w.gc.unhookList)
}

// ReapNow runs a GC pass outside the between-requests schedule.
func (w *Worker) ReapNow() { w.gc.reap(w) }

// advanceEpochs drives n manual epoch steps.
func advanceEpochs(s *Store, n int) {
	for i := 0; i < n; i++ {
		s.AdvanceEpoch()
	}
}

// TestDeleteUnhooksAfterReclamation: a committed delete leaves an absent
// record in the tree; once the snapshot reclamation epoch passes, the GC
// removes it (§4.9).
func TestDeleteUnhooksAfterReclamation(t *testing.T) {
	s := manualStore(t, 1, func(o *Options) { o.SnapshotK = 2 })
	tbl := s.CreateTable("t")
	w := s.Worker(0)

	if err := w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	// Put the delete's snapshot boundary ahead of the reclamation horizon,
	// so the unhook cannot run immediately.
	advanceEpochs(s, 5)
	if err := w.Run(func(tx *Tx) error { return tx.Delete(tbl, []byte("k")) }); err != nil {
		t.Fatal(err)
	}
	// The key is logically gone but physically present (absent record).
	if tbl.Tree.Len() != 1 {
		t.Fatalf("tree len=%d immediately after delete", tbl.Tree.Len())
	}
	// Push epochs well past the snapshot reclamation horizon and give the
	// worker a chance to reap between transactions.
	advanceEpochs(s, 20)
	w.ReapNow()
	if tbl.Tree.Len() != 0 {
		sv, un := w.PendingGarbage()
		t.Fatalf("absent record still hooked (len=%d, pending snap=%d unhook=%d, snapRecl=%d)",
			tbl.Tree.Len(), sv, un, s.Epochs().SnapshotReclamation())
	}
	if gc := collectGC(s); gc.unhooked != 1 {
		t.Fatalf("unhooks done=%d", gc.unhooked)
	}
}

// TestUnhookKeysAcrossReaps: pending unhooks keep their keys end to end in
// one arena that each reap compacts. Deletes of keys of different lengths
// in two tables, registered in two batches that ripen at different
// epochs, must each remove exactly their own key, before and after the
// first batch's keys are cut from the front of the arena.
func TestUnhookKeysAcrossReaps(t *testing.T) {
	s := manualStore(t, 1, func(o *Options) { o.SnapshotK = 2 })
	tabs := []*Table{s.CreateTable("a"), s.CreateTable("b")}
	w := s.Worker(0)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%0*d", 1+i, i)) } // i+1 digits
	const rows = 10
	if err := w.Run(func(tx *Tx) error {
		for _, tbl := range tabs {
			for i := 0; i < rows; i++ {
				if err := tx.Insert(tbl, key(i), []byte("v")); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	del := func(batch map[*Table][]int) {
		t.Helper()
		if err := w.Run(func(tx *Tx) error {
			for tbl, keys := range batch {
				for _, i := range keys {
					if err := tx.Delete(tbl, key(i)); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, gone map[*Table][]int) {
		t.Helper()
		for _, tbl := range tabs {
			want := map[string]bool{}
			for _, i := range gone[tbl] {
				want[string(key(i))] = true
			}
			for i := 0; i < rows; i++ {
				rec, _, _ := tbl.Tree.Get(key(i))
				if (rec == nil) != want[string(key(i))] {
					t.Errorf("%s: table %s key %s hooked=%v, want %v", when, tbl.Name, key(i), rec != nil, !want[string(key(i))])
				}
			}
		}
	}
	advanceEpochs(s, 5)
	first := map[*Table][]int{tabs[0]: {1, 6}, tabs[1]: {2}}
	del(first)
	advanceEpochs(s, 6)
	second := map[*Table][]int{tabs[0]: {4}, tabs[1]: {8, 0}}
	del(second)
	for n := 0; ; n++ {
		if _, un := w.PendingGarbage(); un == 3 {
			break
		} else if un < 3 || n == 50 {
			t.Fatalf("the two batches never reaped apart: %d unhooks pending", un)
		}
		advanceEpochs(s, 1)
		w.ReapNow()
	}
	check("after the first batch", first)
	advanceEpochs(s, 20)
	w.ReapNow()
	both := map[*Table][]int{tabs[0]: {1, 6, 4}, tabs[1]: {2, 8, 0}}
	check("after both", both)
	if gc := collectGC(s); gc.unhooked != 6 {
		t.Errorf("unhooks done=%d, want 6", gc.unhooked)
	}
}

// TestAbortedInsertPlaceholderCollected: an aborted insert's placeholder is
// unhooked at the tree reclamation horizon (§4.5).
func TestAbortedInsertPlaceholderCollected(t *testing.T) {
	s := manualStore(t, 1, nil)
	tbl := s.CreateTable("t")
	w := s.Worker(0)

	tx := w.Begin()
	if err := tx.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if tbl.Tree.Len() != 1 {
		t.Fatal("placeholder not installed")
	}
	tx.Abort()
	if tbl.Tree.Len() != 1 {
		t.Fatal("placeholder removed too early")
	}
	advanceEpochs(s, 3)
	w.ReapNow()
	if tbl.Tree.Len() != 0 {
		t.Fatalf("placeholder still in tree (treeRecl=%d)", s.Epochs().TreeReclamation())
	}
}

// TestSupersededPlaceholderNotUnhooked: if another transaction inserts over
// an absent record before the GC runs, the unhook must be skipped.
func TestSupersededPlaceholderNotUnhooked(t *testing.T) {
	s := manualStore(t, 1, func(o *Options) { o.SnapshotK = 2 })
	tbl := s.CreateTable("t")
	w := s.Worker(0)

	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v1")) })
	advanceEpochs(s, 5) // keep the unhook horizon in the future
	w.Run(func(tx *Tx) error { return tx.Delete(tbl, []byte("k")) })
	// Re-insert before the unhook horizon.
	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v2")) })

	advanceEpochs(s, 20)
	w.ReapNow()
	if tbl.Tree.Len() != 1 {
		t.Fatalf("live key unhooked! len=%d", tbl.Tree.Len())
	}
	if err := w.Run(func(tx *Tx) error {
		v, err := tx.Get(tbl, []byte("k"))
		if err != nil || string(v) != "v2" {
			t.Errorf("got %q %v", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if gc := collectGC(s); gc.skipped == 0 {
		t.Fatalf("expected a skipped unhook: %+v", gc)
	}
}

// TestUnhookClearsLatestAbortsReader: a transaction that read the absent
// record before the GC unhooked it must fail validation (the unhook clears
// the latest bit).
func TestUnhookClearsLatestAbortsReader(t *testing.T) {
	s := manualStore(t, 2, func(o *Options) { o.SnapshotK = 2 })
	tbl := s.CreateTable("t")
	w0 := s.Worker(0)

	w0.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v")) })
	w0.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("other"), []byte("x")) })
	advanceEpochs(s, 5) // keep the unhook horizon in the future
	w0.Run(func(tx *Tx) error { return tx.Delete(tbl, []byte("k")) })
	if tbl.Tree.Len() != 2 {
		t.Fatalf("absent record unhooked too early: len=%d", tbl.Tree.Len())
	}

	// Worker 1 observes the absent record (a failed Get records it in the
	// read set).
	tx := s.Worker(1).Begin()
	if _, err := tx.Get(tbl, []byte("k")); err != ErrNotFound {
		t.Fatal(err)
	}
	if err := tx.Put(tbl, []byte("other"), []byte("y")); err != nil {
		t.Fatal(err)
	}

	// GC unhooks the absent record. (Worker 1 is active, but epochs can
	// still advance while it refreshes; we drive reclamation directly.)
	advanceEpochs(s, 20)
	w0.ReapNow()
	if gc := collectGC(s); gc.unhooked == 0 {
		sv, un := w0.PendingGarbage()
		t.Skipf("unhook did not run (active reader pins horizon): pending=%d/%d", sv, un)
	}
	if err := tx.Commit(); err != ErrConflict {
		t.Fatalf("reader of unhooked record committed: %v", err)
	}
}

// TestSnapshotVersionsReaped: superseded versions registered for snapshots
// are freed once the snapshot reclamation epoch passes (§5.6's property).
func TestSnapshotVersionsReaped(t *testing.T) {
	s := manualStore(t, 1, func(o *Options) { o.SnapshotK = 2 })
	tbl := s.CreateTable("t")
	w := s.Worker(0)

	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v0")) })
	// Updates across snapshot boundaries create chain versions.
	for i := 0; i < 5; i++ {
		advanceEpochs(s, 3) // crosses a snapshot boundary (k=2)
		if err := w.Run(func(tx *Tx) error {
			return tx.Put(tbl, []byte("k"), []byte{byte('a' + i), byte('0' + i)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	gc := collectGC(s)
	if gc.created == 0 {
		t.Fatal("no snapshot versions created across boundaries")
	}
	if gc.retained == 0 {
		t.Fatal("no bytes retained")
	}
	advanceEpochs(s, 20)
	w.ReapNow()
	gc = collectGC(s)
	if gc.reaped != gc.created {
		t.Fatalf("reaped %d of %d versions", gc.reaped, gc.created)
	}
	if gc.retained != 0 {
		t.Fatalf("bytes retained=%d after full reap", gc.retained)
	}
}

// TestNoGCRetainsEverything: with GC disabled, garbage lists only grow
// (the Figure 11 +NoGC factor).
func TestNoGCRetainsEverything(t *testing.T) {
	s := manualStore(t, 1, func(o *Options) { o.GC = false; o.SnapshotK = 2 })
	tbl := s.CreateTable("t")
	w := s.Worker(0)

	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v")) })
	for i := 0; i < 5; i++ {
		advanceEpochs(s, 3)
		w.Run(func(tx *Tx) error { return tx.Put(tbl, []byte("k"), []byte{byte(i)}) })
	}
	w.Run(func(tx *Tx) error { return tx.Delete(tbl, []byte("k")) })
	advanceEpochs(s, 30)
	// GC disabled: nothing reaped even between transactions.
	w.Run(func(tx *Tx) error { return nil })
	sv, un := w.PendingGarbage()
	if sv == 0 || un == 0 {
		t.Fatalf("garbage lists drained despite GC off: snap=%d unhook=%d", sv, un)
	}
	if tbl.Tree.Len() != 1 {
		t.Fatal("absent record unhooked despite GC off")
	}
}

// TestSnapshotsDisabledNoVersions: +NoSnapshots writes never allocate chain
// versions.
func TestSnapshotsDisabledNoVersions(t *testing.T) {
	s := manualStore(t, 1, func(o *Options) { o.Snapshots = false; o.SnapshotK = 2 })
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v")) })
	for i := 0; i < 5; i++ {
		advanceEpochs(s, 3)
		w.Run(func(tx *Tx) error { return tx.Put(tbl, []byte("k"), []byte{byte(i)}) })
	}
	if gc := collectGC(s); gc.created != 0 {
		t.Fatalf("snapshot versions created with snapshots disabled: %d", gc.created)
	}
	// Deletes still unhook, now at the tree horizon.
	w.Run(func(tx *Tx) error { return tx.Delete(tbl, []byte("k")) })
	advanceEpochs(s, 5)
	w.ReapNow()
	if tbl.Tree.Len() != 0 {
		t.Fatal("delete not unhooked with snapshots disabled")
	}
}

// TestSnapshotChainWalk: multiple retained versions resolve correctly for
// different snapshot epochs.
func TestSnapshotChainWalk(t *testing.T) {
	s := manualStore(t, 1, func(o *Options) { o.SnapshotK = 2 })
	tbl := s.CreateTable("t")
	w := s.Worker(0)

	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v0")) })
	advanceEpochs(s, 4)
	w.Run(func(tx *Tx) error { return tx.Put(tbl, []byte("k"), []byte("v1")) })
	advanceEpochs(s, 4)
	w.Run(func(tx *Tx) error { return tx.Put(tbl, []byte("k"), []byte("v2")) })

	// A snapshot reader at the current SE sees v1 (v2 is in the current
	// epoch regime, after SE).
	if err := w.RunSnapshot(func(stx *SnapTx) error {
		v, err := stx.Get(tbl, []byte("k"))
		if err != nil {
			return err
		}
		if string(v) != "v1" {
			t.Errorf("snapshot saw %q (sew=%d)", v, stx.Epoch())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A regular reader sees v2.
	w.Run(func(tx *Tx) error {
		v, err := tx.Get(tbl, []byte("k"))
		if err != nil || string(v) != "v2" {
			t.Errorf("regular read %q %v", v, err)
		}
		return nil
	})
}

// TestSnapshotSeesDeletedState: a delete committed after the snapshot epoch
// is invisible to snapshot readers; one before it hides the key.
func TestSnapshotSeesDeletedState(t *testing.T) {
	s := manualStore(t, 1, func(o *Options) { o.SnapshotK = 2 })
	tbl := s.CreateTable("t")
	w := s.Worker(0)

	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v")) })
	advanceEpochs(s, 6)
	w.Run(func(tx *Tx) error { return tx.Delete(tbl, []byte("k")) })

	// Snapshot epoch predates the delete: the key is visible.
	if err := w.RunSnapshot(func(stx *SnapTx) error {
		v, err := stx.Get(tbl, []byte("k"))
		if err != nil {
			t.Errorf("snapshot lost pre-delete version: %v (sew=%d)", err, stx.Epoch())
			return nil
		}
		if string(v) != "v" {
			t.Errorf("snapshot saw %q", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// After the snapshot horizon passes the delete, the key disappears
	// from snapshots too.
	advanceEpochs(s, 8)
	if err := w.RunSnapshot(func(stx *SnapTx) error {
		if _, err := stx.Get(tbl, []byte("k")); err != ErrNotFound {
			t.Errorf("deleted key visible in late snapshot: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// chainLen counts the superseded versions linked behind the live record
// of key.
func chainLen(tbl *Table, key []byte) int {
	rec, _, _ := tbl.Tree.Get(key)
	n := 0
	for p := rec.Prev(); p != nil; p = p.Prev() {
		n++
	}
	return n
}

// TestReapCutsVersionChains: reaping a superseded version must unlink it
// from its live record, or every version ever preserved stays reachable
// and the retained-bytes gauge falls while the bytes stay. A snapshot pinned
// across several snapshot groups of updates keeps its version readable
// (nothing is cut early); once it ends, a reap leaves at most one version
// behind each key, where without the cut it leaves one per group.
func TestReapCutsVersionChains(t *testing.T) {
	s := manualStore(t, 2, func(o *Options) { o.SnapshotK = 2 })
	tbl := s.CreateTable("t")
	w, pinner := s.Worker(0), s.Worker(1)
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	putAll := func(v string) {
		t.Helper()
		if err := w.Run(func(tx *Tx) error {
			for _, k := range keys {
				if err := tx.Put(tbl, k, []byte(v)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(func(tx *Tx) error {
		for _, k := range keys {
			if err := tx.Insert(tbl, k, []byte("v0")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	advanceEpochs(s, 6)
	stx := pinner.BeginSnapshot()

	const groups = 4
	for g := 1; g <= groups; g++ {
		// SnapshotK epochs on: every round of updates is its own group. The
		// long-running snapshot refreshes so the epoch can advance at all.
		for i := 0; i < 2; i++ {
			s.AdvanceEpoch()
			pinner.RefreshEpoch()
		}
		putAll(fmt.Sprintf("v%d", g))
		w.ReapNow()
	}
	for _, k := range keys {
		if v, err := stx.Get(tbl, k); err != nil || string(v) != "v0" {
			t.Fatalf("pinned snapshot reads %q, %v for %s; want v0", v, err, k)
		}
		if n := chainLen(tbl, k); n != groups {
			t.Fatalf("%s: %d versions behind the live record while a snapshot pins them, want %d", k, n, groups)
		}
	}
	stx.finish()

	advanceEpochs(s, 20)
	w.ReapNow()
	if sv, _ := w.PendingGarbage(); sv != 0 {
		t.Fatalf("%d snapshot versions still pending after the horizon passed", sv)
	}
	for _, k := range keys {
		if n := chainLen(tbl, k); n > 1 {
			t.Errorf("%s: %d versions still reachable after reap, want at most 1", k, n)
		}
	}
	if gc := collectGC(s); gc.retained != 0 {
		t.Errorf("%d snapshot bytes retained after everything was reaped", gc.retained)
	}
}

// TestGCFamiliesUnderLiveScrape: two workers insert, overwrite and delete a
// small key set across many snapshot boundaries while a scraper sums the
// shards. Every scrape must show no more versions reaped than created, a
// retained-bytes gauge that never wrapped below zero, and unhook counts that
// only grow. Once the workers quiesce and every worker has reaped past the
// horizon, the versions balance and no bytes remain retained.
func TestGCFamiliesUnderLiveScrape(t *testing.T) {
	s := manualStore(t, 2, func(o *Options) { o.SnapshotK = 2 })
	tbl := s.CreateTable("t")
	const keys, txns = 4, 3000

	var stop atomic.Bool
	started, scraped := make(chan struct{}), make(chan int)
	go func() {
		var prev gcCounts
		n := 0
		for !stop.Load() {
			if n == 1 {
				close(started)
			}
			gc := collectGC(s)
			if gc.reaped > gc.created {
				t.Errorf("scrape %d: %d versions reaped, %d created", n, gc.reaped, gc.created)
			}
			if gc.retained >= 1<<62 {
				t.Errorf("scrape %d: retained bytes wrapped: %d", n, gc.retained)
			}
			if gc.unhooked < prev.unhooked || gc.skipped < prev.skipped {
				t.Errorf("scrape %d: unhook counts went back: %+v after %+v", n, gc, prev)
			}
			prev = gc
			n++
			runtime.Gosched()
		}
		scraped <- n
	}()

	<-started
	var wg sync.WaitGroup
	for wid := 0; wid < 2; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			for i := 0; i < txns; i++ {
				runtime.Gosched() // interleave with the scraper on few cores
				if wid == 0 && i%4 == 0 {
					s.AdvanceEpoch() // the only advancer: every 4th transaction of worker 0
				}
				k := []byte{byte(i % keys)}
				if err := w.Run(func(tx *Tx) error {
					if _, err := tx.Get(tbl, k); err == ErrNotFound {
						return tx.Insert(tbl, k, []byte{byte(wid), byte(i)})
					} else if err != nil {
						return err
					}
					if i%5 == 4 {
						return tx.Delete(tbl, k)
					}
					return tx.Put(tbl, k, []byte{byte(wid), byte(i), 0})
				}); err != nil {
					t.Errorf("worker %d txn %d: %v", wid, i, err)
					return
				}
			}
		}(wid)
	}
	wg.Wait()
	stop.Store(true)
	if n := <-scraped; n == 0 {
		t.Fatal("no scrape ran while the workers did")
	}

	advanceEpochs(s, 20)
	for wid := 0; wid < 2; wid++ {
		s.Worker(wid).ReapNow()
	}
	gc := collectGC(s)
	if gc.created == 0 || gc.unhooked+gc.skipped == 0 {
		t.Fatalf("the workload exercised nothing: %+v", gc)
	}
	if gc.reaped != gc.created || gc.retained != 0 {
		t.Fatalf("after a full reap: %d of %d versions reaped, %d bytes retained", gc.reaped, gc.created, gc.retained)
	}
}
