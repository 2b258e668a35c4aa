package btree

import (
	"encoding/binary"
	"fmt"
	"testing"

	"silo/internal/record"
	"silo/internal/tid"
)

func benchKey(i int, buf []byte) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return append(buf[:0], b[:]...)
}

func loadedTree(n int) *Tree {
	tr := New()
	var kb []byte
	for i := 0; i < n; i++ {
		kb = benchKey(i, kb)
		tr.InsertIfAbsent(kb, record.New(tid.Make(1, 1).WithLatest(true), []byte{1}))
	}
	return tr
}

func BenchmarkTreeGet(b *testing.B) {
	for _, n := range []int{1000, 100000, 1000000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			tr := loadedTree(n)
			var kb []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kb = benchKey(i%n, kb)
				tr.Get(kb)
			}
		})
	}
}

func BenchmarkTreeInsert(b *testing.B) {
	tr := New()
	var kb []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kb = benchKey(i, kb)
		tr.InsertIfAbsent(kb, record.New(tid.Make(1, 1).WithLatest(true), []byte{1}))
	}
}

func BenchmarkTreeScan100(b *testing.B) {
	tr := loadedTree(100000)
	var lo, hi []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (i * 997) % 99900
		lo = benchKey(start, lo)
		hi = benchKey(start+100, hi)
		cnt := 0
		tr.Scan(lo, hi, nil, func(_ []byte, _ *record.Record) bool {
			cnt++
			return true
		})
	}
}

// BenchmarkTreeGetParallel measures read scaling: readers never write
// shared memory, so added goroutines should not slow each other down.
func BenchmarkTreeGetParallel(b *testing.B) {
	tr := loadedTree(100000)
	b.RunParallel(func(pb *testing.PB) {
		var kb []byte
		i := 0
		for pb.Next() {
			kb = benchKey(i%100000, kb)
			tr.Get(kb)
			i += 7919
		}
	})
}

// BenchmarkBuild prices Build of 100 000 8-byte keys, in four runs as
// recovery hands it a table of a four-part checkpoint, by the goroutines it
// may fill leaves on.
func BenchmarkBuild(b *testing.B) {
	const n = 100000
	items := make([]Item, n)
	rec := record.New(tid.Make(1, 1).WithLatest(true), []byte{1})
	for i := range items {
		items[i] = Item{Key: benchKey(i, nil), Rec: rec}
	}
	runs := [][]Item{items[:n/4], items[n/4 : n/2], items[n/2 : 3*n/4], items[3*n/4:]}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				New().Build(workers, runs...)
			}
		})
	}
}

// BenchmarkChainGet prices a pipelined chain of 8 point lookups, each
// reading its record's 100-byte value, at uniformly random keys of a tree
// far larger than the cache: one at a time (get), and after one Prefetch
// of the chain's keys (prefetch+get), which overlaps the chain's misses
// level by level. ns/key is per lookup, the pass included.
func BenchmarkChainGet(b *testing.B) {
	const n, chain = 1 << 21, 8
	tr := New()
	var kb []byte
	val := make([]byte, 100)
	for i := 0; i < n; i++ {
		kb = benchKey(i*2654435761%n, kb)
		tr.InsertIfAbsent(kb, record.New(tid.Make(1, 1).WithLatest(true), val))
	}
	keys := make([][]byte, chain)
	for i := range keys {
		keys[i] = make([]byte, 8)
	}
	var sink byte
	for _, pre := range []bool{false, true} {
		name := "get"
		if pre {
			name = "prefetch+get"
		}
		b.Run(name, func(b *testing.B) {
			x := uint64(1)
			for i := 0; i < b.N; i++ {
				for _, k := range keys {
					x = x*6364136223846793005 + 1442695040888963407
					binary.BigEndian.PutUint64(k, x>>33%n)
				}
				if pre {
					tr.Prefetch(keys)
				}
				for _, k := range keys {
					if rec, _, _ := tr.Get(k); rec != nil {
						sink += rec.DataUnsafe()[99]
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chain), "ns/key")
		})
	}
	_ = sink
}
