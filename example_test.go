package silo_test

import (
	"fmt"
	"runtime"
	"time"

	"silo"
)

// The basic lifecycle: open, create a table, run serializable
// transactions.
func Example() {
	db, err := silo.Open(silo.Options{Workers: 1})
	if err != nil {
		panic(err)
	}
	defer db.Close()

	tbl := db.CreateTable("greetings")
	err = db.Run(0, func(tx *silo.Tx) error {
		return tx.Insert(tbl, []byte("hello"), []byte("world"))
	})
	if err != nil {
		panic(err)
	}

	db.Run(0, func(tx *silo.Tx) error {
		v, err := tx.Get(tbl, []byte("hello"))
		if err != nil {
			return err
		}
		fmt.Printf("hello %s\n", v)
		return nil
	})
	// Output: hello world
}

// Read-modify-write with automatic conflict retry: the idiomatic way to
// run one-shot requests.
func ExampleDB_Run() {
	db, _ := silo.Open(silo.Options{Workers: 1})
	defer db.Close()
	counters := db.CreateTable("counters")
	db.Run(0, func(tx *silo.Tx) error {
		return tx.Insert(counters, []byte("n"), []byte{0})
	})

	for i := 0; i < 3; i++ {
		db.Run(0, func(tx *silo.Tx) error {
			v, err := tx.Get(counters, []byte("n"))
			if err != nil {
				return err
			}
			v[0]++
			return tx.Put(counters, []byte("n"), v)
		})
	}

	db.Run(0, func(tx *silo.Tx) error {
		v, _ := tx.Get(counters, []byte("n"))
		fmt.Println("n =", v[0])
		return nil
	})
	// Output: n = 3
}

// Range scans visit keys in order and are phantom-protected: if another
// transaction inserts into the scanned range before this one commits, this
// one aborts and retries.
func ExampleTx_Scan() {
	db, _ := silo.Open(silo.Options{Workers: 1})
	defer db.Close()
	tbl := db.CreateTable("t")
	db.Run(0, func(tx *silo.Tx) error {
		for _, k := range []string{"ant", "bee", "cat", "dog"} {
			if err := tx.Insert(tbl, []byte(k), []byte{1}); err != nil {
				return err
			}
		}
		return nil
	})

	db.Run(0, func(tx *silo.Tx) error {
		return tx.Scan(tbl, []byte("b"), []byte("d"), func(k, v []byte) bool {
			fmt.Println(string(k))
			return true
		})
	})
	// Output:
	// bee
	// cat
}

// Snapshot transactions serve large read-only work from a recent consistent
// snapshot: they never abort and never block writers.
func ExampleDB_RunSnapshot() {
	db, _ := silo.Open(silo.Options{
		Workers:       1,
		EpochInterval: time.Millisecond,
		SnapshotK:     2,
	})
	defer db.Close()
	tbl := db.CreateTable("t")
	db.Run(0, func(tx *silo.Tx) error {
		return tx.Insert(tbl, []byte("k"), []byte("v"))
	})
	// Let a snapshot boundary pass the insert.
	for db.Observe().Value("silo_core_snapshot_epoch", "") <= db.LastCommitEpoch(0) {
		runtime.Gosched()
	}

	db.RunSnapshot(0, func(stx *silo.SnapTx) error {
		v, err := stx.Get(tbl, []byte("k"))
		if err != nil {
			return err
		}
		fmt.Printf("snapshot sees %s\n", v)
		return nil
	})
	// Output: snapshot sees v
}
