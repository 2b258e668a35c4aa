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
// artifact (BENCH_SCAN.json holds the reference snapshot); TestLedger
// holds the same scans at 0 allocations.

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

// benchStart is the first row of scan i.
func benchStart(i int) int { return (i * 37) % (benchRows - benchScanLen) }

// benchLo writes scan i's lower bound into dst, so the benchmarks count
// the scan's allocations and not the key's.
func benchLo(dst []byte, i int) []byte {
	return binary.BigEndian.AppendUint64(dst[:0], uint64(benchStart(i)))
}

// scanBench is allocSetup's table, a second table of scattered primary
// keys under an ascending index, and the buffers of a scan.
type scanBench struct {
	w, scatteredW             *core.Worker
	tbl                       *core.Table
	asc, desc, cov, scattered *Index
	lo, hi                    []byte
	keys                      [][]byte
	n                         int // rows the last run visited
	visit                     func(_, _, _ []byte) bool
	visitRow                  func(int, []byte, error) bool
}

func newScanBench(tb testing.TB) *scanBench {
	w, tbl, asc, desc, cov := allocSetup(tb)
	s, scattered := benchSetup(tb, nil, true)
	sb := &scanBench{w: w, scatteredW: s.Worker(0), tbl: tbl, asc: asc, desc: desc, cov: cov, scattered: scattered,
		keys: make([][]byte, benchScanLen)}
	for j := range sb.keys {
		sb.keys[j] = make([]byte, 8)
	}
	sb.visit = func(_, _, _ []byte) bool { sb.n++; return true }
	sb.visitRow = func(int, []byte, error) bool { sb.n++; return true }
	return sb
}

// scanShapes each read the 100 rows from benchStart(i) in run i: through
// an index whose primary keys are scattered (one point read per entry),
// clustered (one sorted multi-get pass), or covered (no resolution);
// through the descending index, whose window is sorted first; and by the
// engine's ordered multi-get.
var scanShapes = []struct {
	name      string
	scattered bool
	body      func(sb *scanBench, r core.Reader, i int) error
}{
	{"per-entry", true, func(sb *scanBench, r core.Reader, i int) error {
		sb.lo = benchLo(sb.lo, i)
		return Scan(r, sb.scattered, sb.lo, nil, benchScanLen, sb.visit)
	}},
	{"batched", false, func(sb *scanBench, r core.Reader, i int) error {
		sb.lo = benchLo(sb.lo, i)
		return Scan(r, sb.asc, sb.lo, nil, benchScanLen, sb.visit)
	}},
	{"covering", false, func(sb *scanBench, r core.Reader, i int) error {
		sb.lo = benchLo(sb.lo, i)
		return ScanCovering(r, sb.cov, sb.lo, nil, benchScanLen, sb.visit)
	}},
	// ^j for j in [start, start+100), collected in reverse.
	{"sorted first", false, func(sb *scanBench, r core.Reader, i int) error {
		start := uint64(benchStart(i))
		sb.lo = binary.BigEndian.AppendUint64(sb.lo[:0], ^(start + benchScanLen - 1))
		sb.hi = binary.BigEndian.AppendUint64(sb.hi[:0], ^(start - 1))
		return Scan(r, sb.desc, sb.lo, sb.hi, 0, sb.visit)
	}},
	{"GetBatch", false, func(sb *scanBench, r core.Reader, i int) error {
		for j, k := range sb.keys {
			binary.BigEndian.PutUint64(k, uint64(benchStart(i)+j))
		}
		return r.GetBatch(sb.tbl, sb.keys, sb.visitRow)
	}},
}

// run runs scan i of scanShapes[shape] under a serializable or a snapshot
// reader.
func (sb *scanBench) run(tb testing.TB, shape int, snapshot bool, i int) {
	sh := scanShapes[shape]
	w := sb.w
	if sh.scattered {
		w = sb.scatteredW
	}
	sb.n = 0
	var err error
	if snapshot {
		err = w.RunSnapshot(func(stx *core.SnapTx) error { return sh.body(sb, stx, i) })
	} else {
		err = runTx(w, func(tx *core.Tx) error { return sh.body(sb, tx, i) })
	}
	if err != nil {
		tb.Fatalf("%s: %v", sh.name, err)
	}
	if sb.n != benchScanLen {
		tb.Fatalf("%s visited %d rows, want %d", sh.name, sb.n, benchScanLen)
	}
}

func benchScan(b *testing.B, shape int) {
	sb := newScanBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.run(b, shape, false, i)
	}
}

func BenchmarkScanResolvePerEntry(b *testing.B) { benchScan(b, 0) }
func BenchmarkScanResolveBatched(b *testing.B)  { benchScan(b, 1) }
func BenchmarkScanResolveCovering(b *testing.B) { benchScan(b, 2) }
