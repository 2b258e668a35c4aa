// Analytics: large read-only reports running against a write-heavy feed.
//
// A metrics table receives a continuous stream of counter updates while an
// analyst repeatedly scans the entire table to compute an aggregate. Run
// the report as a regular serializable transaction and it keeps aborting —
// any concurrent update to a scanned record invalidates it. Run it as a
// Silo snapshot transaction (§4.9) and it always succeeds on a consistent,
// slightly stale view, without slowing the writers down. This is the §5.5
// effect in miniature.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"silo"
	"silo/internal/workload/ycsb"
)

const (
	counters = 5000
	writers  = 3
	reports  = 30
)

func key(i int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(i))
	return b
}

func main() {
	db, err := silo.Open(silo.Options{
		Workers:       writers + 1,
		EpochInterval: 5 * time.Millisecond,
		SnapshotK:     4, // fresh snapshots every ~20ms for the demo
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	metrics := db.CreateTable("metrics")

	// Seed the counters.
	for lo := 0; lo < counters; lo += 512 {
		hi := lo + 512
		if hi > counters {
			hi = counters
		}
		if err := db.Run(0, func(tx *silo.Tx) error {
			for i := lo; i < hi; i++ {
				v := make([]byte, 8)
				if err := tx.Insert(metrics, key(i), v); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			log.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let a snapshot form

	var stop atomic.Bool
	var updates atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := ycsb.NewRNG(uint64(w) + 7)
			for !stop.Load() {
				i := rng.Intn(counters)
				err := db.Run(w, func(tx *silo.Tx) error {
					v, err := tx.Get(metrics, key(i))
					if err != nil {
						return err
					}
					binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)+1)
					return tx.Put(metrics, key(i), v)
				})
				if err != nil {
					log.Printf("writer: %v", err)
					return
				}
				updates.Add(1)
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond) // let the writers get going

	analyst := writers // the last worker
	// One report body for both transaction kinds: each is a silo.Reader.
	scanAll := func(r silo.Reader) (uint64, error) {
		var sum uint64
		err := r.Scan(metrics, key(0), nil, func(k, v []byte) bool {
			sum += binary.LittleEndian.Uint64(v)
			return true
		})
		return sum, err
	}

	// Reports as regular serializable transactions: count the retries.
	// (A short sleep between reports paces the demo so writers make
	// progress even on a single-core machine.)
	regularAborts := 0
	for r := 0; r < reports; r++ {
		time.Sleep(2 * time.Millisecond)
		for {
			err := db.RunNoRetry(analyst, func(tx *silo.Tx) error {
				_, err := scanAll(tx)
				return err
			})
			if err == silo.ErrConflict {
				regularAborts++
				continue
			}
			if err != nil {
				log.Fatal(err)
			}
			break
		}
	}

	// Reports as snapshot transactions: never abort, by construction.
	snapshotAborts := 0
	var lastSum uint64
	for r := 0; r < reports; r++ {
		time.Sleep(2 * time.Millisecond)
		err := db.RunSnapshot(analyst, func(stx *silo.SnapTx) error {
			sum, err := scanAll(stx)
			lastSum = sum
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	stop.Store(true)
	wg.Wait()

	fmt.Printf("writers applied %d counter updates during the reports\n", updates.Load())
	fmt.Printf("regular transactions: %d reports needed %d retries (%.1f aborts/report)\n",
		reports, regularAborts, float64(regularAborts)/reports)
	fmt.Printf("snapshot transactions: %d reports, %d aborts (always zero), last aggregate=%d\n",
		reports, snapshotAborts, lastSum)
}
