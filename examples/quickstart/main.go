// Quickstart: open a database, run serializable transactions, scan a range,
// and read from a consistent snapshot.
package main

import (
	"fmt"
	"log"
	"time"

	"silo"
)

func main() {
	// A database with 2 workers. Workers are Silo's unit of parallelism:
	// run one goroutine per worker, as Silo runs one worker per core.
	db, err := silo.Open(silo.Options{
		Workers:       2,
		EpochInterval: 10 * time.Millisecond,
		SnapshotK:     5, // fresh snapshots every ~50ms so the demo below sees data
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	fruit := db.CreateTable("fruit")

	// Insert some rows in one atomic transaction on worker 0.
	err = db.Run(0, func(tx *silo.Tx) error {
		for _, kv := range [][2]string{
			{"apple", "red"}, {"banana", "yellow"}, {"cherry", "dark red"},
			{"date", "brown"}, {"elderberry", "purple"},
		} {
			if err := tx.Insert(fruit, []byte(kv[0]), []byte(kv[1])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Read-modify-write with full serializability; Run retries conflicts.
	err = db.Run(0, func(tx *silo.Tx) error {
		v, err := tx.Get(fruit, []byte("apple"))
		if err != nil {
			return err
		}
		return tx.Put(fruit, []byte("apple"), append(v, " (ripe)"...))
	})
	if err != nil {
		log.Fatal(err)
	}

	// Range scan: keys in [banana, date), phantom-protected at commit.
	err = db.Run(1, func(tx *silo.Tx) error {
		fmt.Println("fruit in [banana, date):")
		return tx.Scan(fruit, []byte("banana"), []byte("date"), func(k, v []byte) bool {
			fmt.Printf("  %s = %s\n", k, v)
			return true
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	// Deletes are transactional too.
	if err := db.Run(0, func(tx *silo.Tx) error {
		return tx.Delete(fruit, []byte("date"))
	}); err != nil {
		log.Fatal(err)
	}
	if err := db.Run(1, func(tx *silo.Tx) error {
		_, err := tx.Get(fruit, []byte("date"))
		if err == silo.ErrNotFound {
			fmt.Println("date deleted, as expected")
			return nil
		}
		return err
	}); err != nil {
		log.Fatal(err)
	}

	// Snapshot transactions read a recent consistent snapshot and never
	// abort. Give the epoch manager a moment to take a snapshot that
	// includes our inserts.
	time.Sleep(300 * time.Millisecond)
	err = db.RunSnapshot(1, func(stx *silo.SnapTx) error {
		n := 0
		if err := stx.Scan(fruit, []byte("a"), nil, func(k, v []byte) bool {
			n++
			return true
		}); err != nil {
			return err
		}
		fmt.Printf("snapshot (epoch %d) sees %d fruit\n", stx.Epoch(), n)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Every count is a metric family of one snapshot; aborts are per reason.
	snap := db.Observe()
	var aborts uint64
	for _, s := range snap.Samples {
		if s.Name == "silo_core_aborts_total" {
			aborts += s.Value
		}
	}
	fmt.Printf("commits=%d aborts=%d\n", snap.Value("silo_core_commits_total", ""), aborts)
}
