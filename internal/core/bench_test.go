package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"silo/internal/btree"
)

// Ablation microbenchmarks for the commit protocol itself: cost as a
// function of read-set and write-set size, the price of node-set
// (range-query) tracking, and the in-place-overwrite and arena design
// choices called out in DESIGN.md.

func benchStore(b *testing.B, mutate func(*Options)) (*Store, *Table) {
	b.Helper()
	opts := DefaultOptions(1)
	opts.EpochInterval = 10 * time.Millisecond
	if mutate != nil {
		mutate(&opts)
	}
	s := NewStore(opts)
	b.Cleanup(s.Close)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	var kb [8]byte
	val := make([]byte, 100)
	for lo := 0; lo < 100000; lo += 512 {
		w.Run(func(tx *Tx) error {
			for i := lo; i < lo+512 && i < 100000; i++ {
				binary.BigEndian.PutUint64(kb[:], uint64(i))
				if err := tx.Insert(tbl, kb[:], val); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return s, tbl
}

func BenchmarkCommitReadSetSize(b *testing.B) {
	s, tbl := benchStore(b, nil)
	w := s.Worker(0)
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("reads=%d", n), func(b *testing.B) {
			var kb [8]byte
			for i := 0; i < b.N; i++ {
				w.Run(func(tx *Tx) error {
					for j := 0; j < n; j++ {
						binary.BigEndian.PutUint64(kb[:], uint64((i*n+j)%100000))
						if _, err := tx.Get(tbl, kb[:]); err != nil {
							return err
						}
					}
					return nil
				})
			}
		})
	}
}

func BenchmarkCommitWriteSetSize(b *testing.B) {
	s, tbl := benchStore(b, nil)
	w := s.Worker(0)
	val := make([]byte, 100)
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("writes=%d", n), func(b *testing.B) {
			var kb [8]byte
			for i := 0; i < b.N; i++ {
				w.Run(func(tx *Tx) error {
					for j := 0; j < n; j++ {
						binary.BigEndian.PutUint64(kb[:], uint64((i*n+j)%100000))
						if err := tx.Put(tbl, kb[:], val); err != nil {
							return err
						}
					}
					return nil
				})
			}
		})
	}
}

func BenchmarkCommitScanNodeSet(b *testing.B) {
	// Range-query phantom tracking: cost of building and validating the
	// node-set for scans of increasing width, up to the whole table, as
	// ns/row. Trajectory only: the 100000-row scan outgrows maxReadSet,
	// maxKeyArena and maxNodeSet and re-grows all three in every
	// transaction, so its ns/row carries that re-growth as well as the
	// node-set's cost (BenchmarkCommitNodeSet prices the node-set alone).
	const rows = 100000
	s, tbl := benchStore(b, nil)
	w := s.Worker(0)
	for _, n := range []int{10, 100, 1000, 10000, rows} {
		b.Run(fmt.Sprintf("scan=%d", n), func(b *testing.B) {
			defer func() { b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row") }()
			var lo, hi [8]byte
			for i := 0; i < b.N; i++ {
				start := (i * 127) % (rows - n + 1)
				binary.BigEndian.PutUint64(lo[:], uint64(start))
				binary.BigEndian.PutUint64(hi[:], uint64(start+n))
				w.Run(func(tx *Tx) error {
					return tx.Scan(tbl, lo[:], hi[:], func(_, _ []byte) bool { return true })
				})
			}
		})
	}
}

// BenchmarkCommitNodeSet prices the node-set alone: a transaction observes
// n distinct leaves, each twice (as a scan that re-reads its range does),
// and commits, validating them. ns/node is what CI's bench job gates:
// a node-set that finds a leaf by linear search pays O(n) per observation,
// so its ns/node at 2048 leaves is many times its ns/node at 128, where the
// hashed set's stays flat. Every size sits within maxNodeSet, up to exactly
// it, so the worker keeps the set from one transaction to the next and
// none re-grows it: the 4096-leaf set fills its bound, and append rounds
// its capacity past it.
func BenchmarkCommitNodeSet(b *testing.B) {
	s := NewStore(DefaultOptions(1))
	b.Cleanup(s.Close)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	for _, n := range []int{128, maxNodeSet / 2, 3 * maxNodeSet / 4, maxNodeSet} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			leaves := make([]btree.Node, n)
			for i := 0; i < b.N; i++ {
				if err := w.RunOnce(func(tx *Tx) error {
					for pass := 0; pass < 2; pass++ {
						for j := range leaves {
							tx.addNode(tbl, &leaves[j], leaves[j].Version())
						}
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
		})
	}
}

// BenchmarkCommit times the commit hot path as it ships, instruments
// included (per-worker sharded counters, batched table tallies, 1-in-64
// phase-latency sampling, one flight-recorder event per commit): a
// read-modify-write transaction, 1 GET + 1 PUT of a 100-byte row in a
// 100k-row table. workers=1 is the clean single-core path; workers=4 runs
// four worker goroutines committing concurrently over disjoint key ranges,
// so the shards and rings are exercised under real commit concurrency
// with no aborts.
func BenchmarkCommit(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := DefaultOptions(workers)
			opts.EpochInterval = 10 * time.Millisecond
			s := NewStore(opts)
			b.Cleanup(s.Close)
			tbl := s.CreateTable("t")
			w0 := s.Worker(0)
			var kb [8]byte
			val := make([]byte, 100)
			for lo := 0; lo < 100000; lo += 512 {
				w0.Run(func(tx *Tx) error {
					for i := lo; i < lo+512 && i < 100000; i++ {
						binary.BigEndian.PutUint64(kb[:], uint64(i))
						if err := tx.Insert(tbl, kb[:], val); err != nil {
							return err
						}
					}
					return nil
				})
			}
			per := b.N / workers
			b.ResetTimer()
			var wg sync.WaitGroup
			for wid := 0; wid < workers; wid++ {
				wg.Add(1)
				go func(wid int) {
					defer wg.Done()
					w := s.Worker(wid)
					span := 100000 / workers
					base := wid * span
					var kb [8]byte
					val := make([]byte, 100)
					for i := 0; i < per; i++ {
						binary.BigEndian.PutUint64(kb[:], uint64(base+i%span))
						val[0] = byte(i)
						w.Run(func(tx *Tx) error {
							if _, err := tx.Get(tbl, kb[:]); err != nil {
								return err
							}
							return tx.Put(tbl, kb[:], val)
						})
					}
				}(wid)
			}
			wg.Wait()
		})
	}
}

// BenchmarkOverwriteModes isolates the +Overwrites factor at the record
// level: same-size updates with and without in-place overwrite.
func BenchmarkOverwriteModes(b *testing.B) {
	for _, mode := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"InPlace", nil},
		{"AllocEachWrite", func(o *Options) { o.Overwrites = false }},
		{"AllocNoArena", func(o *Options) { o.Overwrites = false; o.Arena = false }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s, tbl := benchStore(b, mode.mutate)
			w := s.Worker(0)
			val := make([]byte, 100)
			var kb [8]byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(kb[:], uint64(i%100000))
				val[0] = byte(i)
				w.Run(func(tx *Tx) error { return tx.Put(tbl, kb[:], val) })
			}
		})
	}
}

// BenchmarkSnapshotRead compares current-state reads against snapshot reads
// that walk a version chain.
func BenchmarkSnapshotRead(b *testing.B) {
	opts := DefaultOptions(1)
	opts.ManualEpochs = true
	opts.SnapshotK = 2
	s := NewStore(opts)
	b.Cleanup(s.Close)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v0")) })
	// Build a 5-version chain.
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			s.AdvanceEpoch()
		}
		w.Run(func(tx *Tx) error { return tx.Put(tbl, []byte("k"), []byte{byte(i), 0}) })
	}
	b.Run("Current", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.Run(func(tx *Tx) error { _, err := tx.Get(tbl, []byte("k")); return err })
		}
	})
	b.Run("Snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.RunSnapshot(func(stx *SnapTx) error {
				_, err := stx.Get(tbl, []byte("k"))
				if err == ErrNotFound {
					err = nil
				}
				return err
			})
		}
	})
}
