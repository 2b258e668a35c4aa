package silo_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"silo"
)

func openTestDB(t *testing.T, opts silo.Options) *silo.DB {
	t.Helper()
	if opts.EpochInterval == 0 {
		opts.EpochInterval = time.Millisecond
	}
	db, err := silo.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestOpenDefaults(t *testing.T) {
	db := openTestDB(t, silo.Options{})
	tbl := db.CreateTable("t")
	if db.Table("t") != tbl {
		t.Fatal("table lookup")
	}
	if db.Table("nope") != nil {
		t.Fatal("phantom table")
	}
	if err := db.Run(0, func(tx *silo.Tx) error {
		return tx.Insert(tbl, []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	if db.DurableEpoch() != 0 {
		t.Fatal("durable epoch nonzero without durability")
	}
	if db.Epoch() == 0 {
		t.Fatal("epoch zero")
	}
}

func TestErrorAliases(t *testing.T) {
	db := openTestDB(t, silo.Options{})
	tbl := db.CreateTable("t")
	err := db.RunNoRetry(0, func(tx *silo.Tx) error {
		_, err := tx.Get(tbl, []byte("missing"))
		return err
	})
	if !errors.Is(err, silo.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestRunRetriesConflicts(t *testing.T) {
	db := openTestDB(t, silo.Options{Workers: 2})
	tbl := db.CreateTable("t")
	db.Run(0, func(tx *silo.Tx) error { return tx.Insert(tbl, []byte("n"), []byte{0}) })

	var wg sync.WaitGroup
	const per = 500
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := db.Run(w, func(tx *silo.Tx) error {
					v, err := tx.Get(tbl, []byte("n"))
					if err != nil {
						return err
					}
					v[0]++
					return tx.Put(tbl, []byte("n"), v)
				}); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	db.Run(0, func(tx *silo.Tx) error {
		v, _ := tx.Get(tbl, []byte("n"))
		if v[0] != byte(2*per%256) {
			t.Errorf("counter=%d want %d", v[0], byte(2*per%256))
		}
		return nil
	})
}

func TestSnapshotDisabledErrors(t *testing.T) {
	db := openTestDB(t, silo.Options{DisableSnapshots: true})
	if err := db.RunSnapshot(0, func(stx *silo.SnapTx) error { return nil }); err == nil {
		t.Fatal("RunSnapshot succeeded with snapshots disabled")
	}
}

func TestRunDurableRequiresDurability(t *testing.T) {
	db := openTestDB(t, silo.Options{})
	if err := db.RunDurable(0, func(tx *silo.Tx) error { return nil }); err == nil {
		t.Fatal("RunDurable without durability succeeded")
	}
	if _, err := db.Recover(); err == nil {
		t.Fatal("Recover without durability succeeded")
	}
}

// TestRunDurableClosesEpochOnDemand: RunDurable's wait is demand for its
// epoch, so it costs an fsync pass, not the rest of the epoch. Under a
// 1 s epoch each of these used to wait up to a second.
func TestRunDurableClosesEpochOnDemand(t *testing.T) {
	db := openTestDB(t, silo.Options{
		EpochInterval: time.Second,
		Durability:    &silo.DurabilityOptions{Dir: t.TempDir(), Sync: true},
	})
	tbl := db.CreateTable("t")
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := db.RunDurable(0, func(tx *silo.Tx) error { return tx.Insert(tbl, []byte{byte(i)}, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
		if e, d := db.LastCommitEpoch(0), db.DurableEpoch(); d < e {
			t.Fatalf("RunDurable returned with its epoch %d not durable (D = %d)", e, d)
		}
	}
	if took := time.Since(start); took > 300*time.Millisecond {
		t.Errorf("3 RunDurable calls took %v under a 1s epoch: the waits were not demand", took)
	}
	if n := db.Observe().Value("silo_epoch_advances_total", "demand"); n < 3 {
		t.Errorf("%d epochs closed on demand, want one per RunDurable", n)
	}
}

func TestDurableRoundTripAndRecover(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, silo.Options{
		Workers:    2,
		Durability: &silo.DurabilityOptions{Dir: dir, Loggers: 2},
	})
	users := db.CreateTable("users")
	posts := db.CreateTable("posts")

	for i := 0; i < 40; i++ {
		k := []byte(fmt.Sprintf("u%03d", i))
		if err := db.RunDurable(i%2, func(tx *silo.Tx) error {
			if err := tx.Insert(users, k, []byte(fmt.Sprintf("user %d", i))); err != nil {
				return err
			}
			return tx.Insert(posts, k, []byte("post"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Updates and deletes, also durable.
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("u%03d", i))
		if err := db.RunDurable(0, func(tx *silo.Tx) error {
			if i%2 == 0 {
				return tx.Put(users, k, []byte("updated"))
			}
			return tx.Delete(users, k)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if db.DurableEpoch() == 0 {
		t.Fatal("durable epoch still zero after RunDurable")
	}
	db.Close()

	// Reopening recovers: the schema comes back from the catalog.
	db2 := openTestDB(t, silo.Options{
		Durability: &silo.DurabilityOptions{Dir: dir},
	})
	users2 := db2.Table("users")
	res, err := db2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.TxnsApplied == 0 {
		t.Fatal("nothing recovered")
	}
	if db2.Epoch() <= res.DurableEpoch {
		t.Fatalf("epoch %d not restarted above D=%d", db2.Epoch(), res.DurableEpoch)
	}

	for i := 0; i < 40; i++ {
		k := []byte(fmt.Sprintf("u%03d", i))
		err := db2.Run(0, func(tx *silo.Tx) error {
			v, err := tx.Get(users2, k)
			switch {
			case i < 20 && i%2 == 0: // updated
				if err != nil || string(v) != "updated" {
					t.Errorf("u%03d: %q %v", i, v, err)
				}
			case i < 20: // deleted
				if err != silo.ErrNotFound {
					t.Errorf("u%03d: want ErrNotFound, got %v", i, err)
				}
			default: // untouched
				if err != nil || string(v) != fmt.Sprintf("user %d", i) {
					t.Errorf("u%03d: %q %v", i, v, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// waitSnapshotPast waits until the snapshot epoch passes worker's last
// commit, so a snapshot begun now sees it (visibility is epoch < SE).
func waitSnapshotPast(t *testing.T, db *silo.DB, worker int) {
	t.Helper()
	e := db.LastCommitEpoch(worker)
	deadline := time.Now().Add(10 * time.Second)
	for db.Observe().Value("silo_core_snapshot_epoch", "") <= e {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot epoch never passed epoch %d", e)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSnapshotThroughPublicAPI(t *testing.T) {
	db := openTestDB(t, silo.Options{SnapshotK: 2, EpochInterval: time.Millisecond})
	tbl := db.CreateTable("t")
	db.Run(0, func(tx *silo.Tx) error { return tx.Insert(tbl, []byte("k"), []byte("old")) })
	waitSnapshotPast(t, db, 0) // the Put below lands in a later snapshot group
	db.Run(0, func(tx *silo.Tx) error { return tx.Put(tbl, []byte("k"), []byte("new")) })

	if err := db.RunSnapshot(0, func(stx *silo.SnapTx) error {
		v, err := stx.Get(tbl, []byte("k"))
		if err != nil {
			return err
		}
		if string(v) != "old" && string(v) != "new" {
			t.Errorf("snapshot saw %q", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFactorToggleOptions(t *testing.T) {
	// Every factor-analysis configuration must still execute transactions
	// correctly.
	for _, opts := range []silo.Options{
		{DisableSnapshots: true},
		{DisableGC: true},
		{DisableOverwrites: true},
		{DisableArena: true},
		{GlobalTID: true},
		{DisableSnapshots: true, DisableGC: true, DisableOverwrites: true, DisableArena: true},
	} {
		db := openTestDB(t, opts)
		tbl := db.CreateTable("t")
		if err := db.Run(0, func(tx *silo.Tx) error {
			if err := tx.Insert(tbl, []byte("a"), []byte("1")); err != nil {
				return err
			}
			if err := tx.Put(tbl, []byte("a"), []byte("22")); err != nil {
				return err
			}
			v, err := tx.Get(tbl, []byte("a"))
			if err != nil || string(v) != "22" {
				return fmt.Errorf("got %q %v", v, err)
			}
			return nil
		}); err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		db.Close()
	}
}

func TestCheckpointRecoverTruncate(t *testing.T) {
	dir := t.TempDir()
	open := func() *silo.DB {
		return openTestDB(t, silo.Options{
			Workers:    1,
			SnapshotK:  2,
			Durability: &silo.DurabilityOptions{Dir: dir},
		})
	}
	db := open()
	tbl := db.CreateTable("t")
	for i := 0; i < 30; i++ {
		if err := db.RunDurable(0, func(tx *silo.Tx) error {
			return tx.Insert(tbl, []byte(fmt.Sprintf("pre%03d", i)), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitSnapshotPast(t, db, 0) // let a snapshot cover the inserts
	ck, err := db.Checkpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Rows == 0 {
		t.Fatal("empty checkpoint")
	}
	// Post-checkpoint writes.
	for i := 0; i < 10; i++ {
		if err := db.RunDurable(0, func(tx *silo.Tx) error {
			return tx.Insert(tbl, []byte(fmt.Sprintf("post%02d", i)), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	// Reopening recovers from checkpoint + log suffix.
	db2 := open()
	tbl2 := db2.Table("t")
	if res, err := db2.Recover(); err != nil || res.CheckpointEpoch != ck.Epoch {
		t.Fatalf("recovered from checkpoint %d (%v), want %d", res.CheckpointEpoch, err, ck.Epoch)
	}
	if err := db2.Run(0, func(tx *silo.Tx) error {
		n := 0
		if err := tx.Scan(tbl2, []byte("a"), nil, func(_, _ []byte) bool { n++; return true }); err != nil {
			return err
		}
		if n != 40 {
			t.Errorf("recovered %d rows, want 40", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db2.Close()

	// Truncation between sessions: pre-checkpoint-only log files go away
	// (here there is one log file containing post-checkpoint data too, so
	// nothing is removed — the call must still be safe).
	if _, err := silo.TruncateLogs(dir, ck.Epoch); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRequiresDurabilityAndSnapshots(t *testing.T) {
	db := openTestDB(t, silo.Options{})
	if _, err := db.Checkpoint(0); err == nil {
		t.Fatal("Checkpoint without durability succeeded")
	}
	db2 := openTestDB(t, silo.Options{
		DisableSnapshots: true,
		Durability:       &silo.DurabilityOptions{Dir: t.TempDir()},
	})
	if _, err := db2.Checkpoint(0); err == nil {
		t.Fatal("Checkpoint without snapshots succeeded")
	}
}

func TestStatsThroughAPI(t *testing.T) {
	db := openTestDB(t, silo.Options{})
	tbl := db.CreateTable("t")
	db.Run(0, func(tx *silo.Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v")) })
	if n := db.Observe().Value("silo_core_commits_total", ""); n == 0 {
		t.Fatal("no commits counted")
	}
}

// TestIndexCountersSurviveDrop: the silo_index_* counters belong to the
// schema catalog and are shared by all its indexes, so dropping an index
// does not lower them, and a re-created index counts on from the totals.
func TestIndexCountersSurviveDrop(t *testing.T) {
	db := openTestDB(t, silo.Options{})
	users := db.CreateTable("users")
	if err := db.Run(0, func(tx *silo.Tx) error { return tx.Insert(users, []byte("u1"), []byte("AMS-ada")) }); err != nil {
		t.Fatal(err)
	}
	createAndRead := func() {
		t.Helper()
		ix, err := db.CreateIndexSpec(0, users, "users_by_city", true, []silo.IndexSeg{{FromValue: true, Off: 0, Len: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Run(0, func(tx *silo.Tx) error {
			if err := silo.ScanIndex(tx, ix, []byte("A"), []byte("B"), func(_, _, _ []byte) bool { return true }); err != nil {
				return err
			}
			_, _, err := silo.LookupIndex(tx, ix, []byte("AMS"))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	createAndRead()
	before := db.Observe()
	if err := db.DropIndex("users_by_city"); err != nil {
		t.Fatal(err)
	}
	after := db.Observe()
	createAndRead()
	again := db.Observe()
	for _, c := range []struct{ name, label string }{
		{"silo_index_scans_total", "batched"},
		{"silo_index_lookups_total", ""},
	} {
		b, a, g := before.Value(c.name, c.label), after.Value(c.name, c.label), again.Value(c.name, c.label)
		if b != 1 || a != 1 || g != 2 {
			t.Errorf("%s{%s}: %d before the drop, %d after it, %d after a re-create and one more read; want 1, 1, 2",
				c.name, c.label, b, a, g)
		}
	}
}
