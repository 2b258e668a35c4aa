package index

import (
	"encoding/binary"
	"testing"

	"silo/internal/core"
)

// scan_bench_test.go compares the three resolution strategies for a
// 100-entry secondary-range scan over a 100k-row table: one sorted
// multi-get pass where secondary order parallels primary order (the
// TPC-C-like clustered case batching is built for), one primary point
// read per entry where the primary keys are hash-like (the case Scan
// resolves that way), and no resolution at all (covering). CI runs these
// on every push and uploads the result as the scan-perf trajectory
// artifact (BENCH_SCAN.json holds the reference snapshot).

const (
	benchRows    = 100000
	benchScanLen = 100
	benchRowSize = 100
)

// benchSetup loads the table, keyed by the row number — big-endian, or
// hashed (scatterPK) when scattered is set — and ends with a snapshot
// covering the load.
func benchSetup(b testing.TB, include []Seg, scattered bool) (*core.Store, *Index) {
	b.Helper()
	opts := core.DefaultOptions(1)
	opts.ManualEpochs = true
	opts.SnapshotK = 2
	s := core.NewStore(opts)
	b.Cleanup(s.Close)
	tbl := s.CreateTable("rows")
	// Secondary key: the row's first 8 bytes (a big-endian counter equal
	// to the row number, so secondary ranges resolve clustered runs of
	// primary keys).
	ix := mustNew(b, s, tbl, "rows_ix", false, []Seg{{FromValue: true, Off: 0, Len: 8}}, include...)
	w := s.Worker(0)
	var kb []byte
	row := make([]byte, benchRowSize)
	for lo := 0; lo < benchRows; lo += 256 {
		hi := lo + 256
		if hi > benchRows {
			hi = benchRows
		}
		if err := runTx(w, func(tx *core.Tx) error {
			for i := lo; i < hi; i++ {
				kb = binary.BigEndian.AppendUint64(kb[:0], uint64(i))
				if scattered {
					kb = scatterPK(i)
				}
				binary.BigEndian.PutUint64(row, uint64(i))
				if err := tx.Insert(tbl, kb, row); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	coverWithSnapshot(s)
	return s, ix
}

// benchLo writes scan i's lower bound into dst, so the benchmarks count
// the scan's allocations and not the key's.
func benchLo(dst []byte, i int) []byte {
	start := (i * 37) % (benchRows - benchScanLen)
	return binary.BigEndian.AppendUint64(dst[:0], uint64(start))
}

func BenchmarkScanResolvePerEntry(b *testing.B) {
	s, ix := benchSetup(b, nil, true)
	w := s.Worker(0)
	var lo []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		lo = benchLo(lo, i)
		if err := runTx(w, func(tx *core.Tx) error {
			n = 0
			return Scan(tx, ix, lo, nil, benchScanLen, func(_, _, _ []byte) bool {
				n++
				return true
			})
		}); err != nil {
			b.Fatal(err)
		}
		if n != benchScanLen {
			b.Fatalf("scan saw %d entries", n)
		}
	}
}

func BenchmarkScanResolveBatched(b *testing.B) {
	s, ix := benchSetup(b, nil, false)
	w := s.Worker(0)
	var lo []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		lo = benchLo(lo, i)
		if err := runTx(w, func(tx *core.Tx) error {
			n = 0
			return Scan(tx, ix, lo, nil, benchScanLen, func(_, _, _ []byte) bool {
				n++
				return true
			})
		}); err != nil {
			b.Fatal(err)
		}
		if n != benchScanLen {
			b.Fatalf("scan saw %d entries", n)
		}
	}
}

func BenchmarkScanResolveCovering(b *testing.B) {
	// Covering projection: the 16 leading row bytes (counter + tag), the
	// shape a field-serving query would declare.
	s, ix := benchSetup(b, []Seg{{FromValue: true, Off: 0, Len: 16}}, false)
	w := s.Worker(0)
	var lo []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		lo = benchLo(lo, i)
		if err := runTx(w, func(tx *core.Tx) error {
			n = 0
			return ScanCovering(tx, ix, lo, nil, benchScanLen, func(_, _, _ []byte) bool {
				n++
				return true
			})
		}); err != nil {
			b.Fatal(err)
		}
		if n != benchScanLen {
			b.Fatalf("scan saw %d entries", n)
		}
	}
}
