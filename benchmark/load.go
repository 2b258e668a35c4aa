package main

import (
	"fmt"
	"sync"
	"time"

	"silo"
	"silo/internal/workload/ycsb"
)

// loadTable inserts rows 0..n-1 (8-byte big-endian keys) into tbl in
// 512-row transactions, one contiguous stripe per worker of db.
func loadTable(db *silo.DB, tbl *silo.Table, n int, valueOf func(dst []byte, k int) []byte) error {
	workers := db.Workers()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var kb, vb []byte
			for lo, end := n*w/workers, n*(w+1)/workers; lo < end && errs[w] == nil; lo += 512 {
				errs[w] = db.Run(w, func(tx *silo.Tx) error {
					for k := lo; k < min(lo+512, end); k++ {
						kb = ycsb.Key(uint64(k), kb)
						vb = valueOf(vb, k)
						if err := tx.Insert(tbl, kb, vb); err != nil {
							return err
						}
					}
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}

// ycsbRow is the row internal/workload/ycsb loads: a zero counter in the
// first 8 bytes and the key's low byte last.
func ycsbRow(size int) func(dst []byte, k int) []byte {
	return func(dst []byte, k int) []byte {
		dst = append(dst[:0], make([]byte, size)...)
		dst[size-1] = byte(k)
		return dst
	}
}

// openToRecover opens the log directory dir for DB.Recover.
//
// The epoch interval is set so long that the epoch never ticks while
// recovery runs. Open starts this run's loggers, which append to the
// directory's newest segments; at the first epoch tick they append a
// durable-epoch frame for this run's fresh epoch counter (d = 1), and
// recovery takes a segment's last such frame as its logger's bound — so a
// Recover that is still reading one default epoch (40 ms) after Open finds
// D = 1 and skips the whole log as not durable. That is a defect of the
// engine, not of the workload; until it is fixed there, the benchmark
// keeps the tick out of the way. Nothing measured here depends on the
// recovering database's epochs.
func openToRecover(dir string, workers, loggers int, segmentBytes int64) (*silo.DB, error) {
	return silo.Open(silo.Options{
		Workers:       workers,
		EpochInterval: time.Hour,
		Durability:    &silo.DurabilityOptions{Dir: dir, Loggers: loggers, SegmentBytes: segmentBytes, RecoveryWorkers: workers},
	})
}
