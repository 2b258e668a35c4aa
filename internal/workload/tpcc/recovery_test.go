package tpcc

import (
	"sync"
	"testing"
	"time"

	"silo"
	"silo/internal/core"
)

// TestDurableTPCCRecovery is the end-to-end §4.10 test, run through the
// public database API: run the standard mix concurrently with logging,
// write a partitioned checkpoint, close cleanly, and recover — twice,
// sequentially and in parallel — into fresh databases whose schema comes
// entirely from the self-describing log (no re-declaration: the loader's
// DDL replays). The capture happens immediately after the last commit,
// before Close, so the comparison doubles as the TPC-C-scale regression
// for the shutdown drain: a Close that loses the final epoch's
// acknowledged commits fails the exact-content check here.
func TestDurableTPCCRecovery(t *testing.T) {
	const workers = 3
	dir := t.TempDir()

	db, err := silo.Open(silo.Options{
		Workers:       workers,
		EpochInterval: time.Millisecond,
		Durability:    &silo.DurabilityOptions{Dir: dir, Loggers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Store()
	sc := tinyScale(workers)
	tables := Load(db, sc)

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			cfg := StandardConfig()
			cfg.SnapshotStockLevel = false
			cl := NewClient(tables, sc, s.Worker(wid), wid+1, cfg, uint64(wid)*3+11)
			for i := 0; i < 200; i++ {
				if err := cl.RunMix(); err != nil && err != ErrRollback {
					t.Errorf("worker %d: %v", wid, err)
					return
				}
			}
		}(wid)
	}
	wg.Wait()

	// A partitioned checkpoint once a snapshot epoch exists: parallel
	// recovery must restore from it plus the log suffix to the same state
	// sequential log-only replay reaches. Each durability wait on the open
	// epoch closes it on demand, stepping E until SE has moved off zero.
	for s.Epochs().SnapshotGlobal() == 0 {
		db.WaitDurable(db.Epoch())
	}
	ck, err := db.Checkpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Rows == 0 {
		t.Fatal("empty checkpoint")
	}

	// Capture the logical content of every table — including the schema
	// catalog's own — then close. No durability wait: Close's drain owes
	// us every acknowledged commit.
	type row struct{ k, v string }
	capture := func(store *core.Store, tbls *Tables) map[string][]row {
		out := map[string][]row{}
		for _, tbl := range store.Tables() {
			var rows []row
			err := store.Worker(0).Run(func(tx *core.Tx) error {
				rows = rows[:0]
				return tx.Scan(tbl, []byte{0}, nil, func(k, v []byte) bool {
					rows = append(rows, row{string(k), string(v)})
					return true
				})
			})
			if err != nil {
				t.Fatalf("capture %s: %v", tbl.Name, err)
			}
			out[tbl.Name] = rows
		}
		return out
	}
	want := capture(s, tables)
	db.Close()

	// Sequential recovery (one replay worker) into a fresh database. The
	// schema — every table id, both index declarations — replays from the
	// catalog records the loader logged; Handles just looks them up.
	db2, err := silo.Open(silo.Options{
		Workers:    1,
		Durability: &silo.DurabilityOptions{Dir: dir, Loggers: 2, RecoveryWorkers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.TxnsApplied == 0 && res.CheckpointRows == 0 {
		t.Fatal("nothing recovered")
	}
	tables2 := Handles(db2, sc)
	got := capture(db2.Store(), tables2)

	for name, wantRows := range want {
		gotRows := got[name]
		if len(gotRows) != len(wantRows) {
			t.Errorf("table %s: %d rows recovered, want %d", name, len(gotRows), len(wantRows))
			continue
		}
		for i := range wantRows {
			if gotRows[i] != wantRows[i] {
				t.Errorf("table %s row %d differs", name, i)
				break
			}
		}
	}

	// The recovered database satisfies TPC-C's consistency conditions.
	if err := CheckConsistency(db2.Store(), tables2, sc); err != nil {
		t.Fatalf("recovered consistency: %v", err)
	}
	if err := CheckMoney(db2.Store(), tables2, sc); err != nil {
		t.Fatalf("recovered money: %v", err)
	}
	if err := CheckIndexes(db2.Store(), tables2); err != nil {
		t.Fatalf("recovered indexes: %v", err)
	}

	// Parallel recovery (checkpoint + log suffix, 4 replay workers) must
	// reproduce the sequential state bit-for-bit and pass the same
	// consistency conditions.
	db3, err := silo.Open(silo.Options{
		Workers:    1,
		Durability: &silo.DurabilityOptions{Dir: dir, Loggers: 2, RecoveryWorkers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	pres, err := db3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if pres.CheckpointEpoch != ck.Epoch {
		t.Errorf("parallel recovery used checkpoint %d, want %d", pres.CheckpointEpoch, ck.Epoch)
	}
	tables3 := Handles(db3, sc)
	got3 := capture(db3.Store(), tables3)
	for name, wantRows := range want {
		gotRows := got3[name]
		if len(gotRows) != len(wantRows) {
			t.Errorf("parallel: table %s: %d rows recovered, want %d", name, len(gotRows), len(wantRows))
			continue
		}
		for i := range wantRows {
			if gotRows[i] != wantRows[i] {
				t.Errorf("parallel: table %s row %d differs", name, i)
				break
			}
		}
	}
	if err := CheckConsistency(db3.Store(), tables3, sc); err != nil {
		t.Fatalf("parallel recovered consistency: %v", err)
	}
	if err := CheckMoney(db3.Store(), tables3, sc); err != nil {
		t.Fatalf("parallel recovered money: %v", err)
	}
	if err := CheckIndexes(db3.Store(), tables3); err != nil {
		t.Fatalf("parallel recovered indexes: %v", err)
	}
}
