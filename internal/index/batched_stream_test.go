package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"silo/internal/core"
	"silo/internal/race"
)

// batched_stream_test.go covers Scan's two staging orders. A window whose
// collected primary keys already ascend is resolved in entry order; any
// other window is sorted by primary key first. Both must be
// indistinguishable from the naive reference — in full, and when the
// caller stops at any position — and neither may allocate.

// TestBatchedEmissionOrdersAgree runs the property-test workload under
// two indexes: one keyed by a random spec (secondary order scrambles
// primary order: sorted before resolution) and one keyed by the primary
// key itself (parallel: resolved as collected). On each, Scan matches the
// reference for the whole range and for a stop after every k-th row, with
// max 0 and with max k.
func TestBatchedEmissionOrdersAgree(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	sawStaged := false
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)*104729 + 5))
		s := newStore(t, 1)
		tbl := s.CreateTable("rows")
		w := s.Worker(0)
		indexes := []*Index{
			mustNew(t, s, tbl, "rows_scrambled", false, propSpec(rng, 3, 12)),
			mustNew(t, s, tbl, "rows_parallel", false, []Seg{{Off: 0, Len: 5}}),
		}
		for i := 0; i < 200; i++ {
			k := []byte(fmt.Sprintf("p%04d", rng.Intn(60)))
			v := make([]byte, propRowWidth)
			rng.Read(v)
			if err := runTx(w, func(tx *core.Tx) error {
				if rng.Intn(5) == 0 {
					if err := tx.Delete(tbl, k); err != core.ErrNotFound {
						return err
					}
					return nil
				}
				if err := tx.Insert(tbl, k, v); err != core.ErrKeyExists {
					return err
				}
				return tx.Put(tbl, k, v)
			}); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
		}

		for _, ix := range indexes {
			if err := runTx(w, func(tx *core.Tx) error {
				ref, err := propReference(tx, ix, tbl, []byte{0}, nil)
				if err != nil {
					return err
				}
				if len(ref) <= 8 {
					t.Fatalf("seed %d: only %d rows; the batched path needs more than 8", seed, len(ref))
				}
				ascending := sort.SliceIsSorted(ref, func(a, b int) bool { return ref[a].pk < ref[b].pk })
				if ascending != (ix == indexes[1]) {
					if ix == indexes[1] {
						t.Fatalf("seed %d: the pk-keyed index did not collect in pk order", seed)
					}
					return nil // a random spec that happens to parallel pk order: nothing sorted to check
				}
				sawStaged = sawStaged || !ascending
				// Stop after row k, for every k; max 0 and max k must agree.
				for k := 1; k <= len(ref); k++ {
					for _, max := range []int{0, k} {
						var got []propTriple
						if err := Scan(tx, ix, []byte{0}, nil, max, func(sk, pk, val []byte) bool {
							got = append(got, propTriple{string(sk), string(pk), string(val)})
							return len(got) < k
						}); err != nil {
							return err
						}
						if fmt.Sprint(got) != fmt.Sprint(ref[:k]) {
							t.Fatalf("seed %d %s stop at %d (max %d):\n got %v\nwant %v", seed, ix.Name, k, max, got, ref[:k])
						}
					}
				}
				return nil
			}); err != nil {
				t.Fatalf("seed %d %s: %v", seed, ix.Name, err)
			}
		}
	}
	if !sawStaged {
		t.Fatal("no seed produced an out-of-order batch: the sorted resolution was never exercised")
	}
}

// allocSetup is benchSetup's table under three indexes: ascending on the
// row counter (windows resolve as collected), descending on it (windows
// are reversed: sorted first), and covering.
func allocSetup(t *testing.T) (w *core.Worker, tbl *core.Table, asc, desc, cov *Index) {
	s, asc := benchSetup(t, nil, false)
	tbl = asc.On
	desc = mustNew(t, s, tbl, "rows_desc", false, []Seg{{FromValue: true, Off: 0, Len: 8, Xform: XformInvert}})
	cov = mustNew(t, s, tbl, "rows_cov", false, []Seg{{FromValue: true, Off: 0, Len: 8}}, Seg{FromValue: true, Off: 0, Len: 16})
	w = s.Worker(0)
	for _, ix := range []*Index{desc, cov} {
		if err := ix.Backfill(w); err != nil {
			t.Fatal(err)
		}
	}
	coverWithSnapshot(s)
	return w, tbl, asc, desc, cov
}

// TestMirroredIndexes runs the two checks that need allocSetup's 100k-row
// table on one load of it.
func TestMirroredIndexes(t *testing.T) {
	w, tbl, asc, desc, cov := allocSetup(t)
	t.Run("staged page is the streamed page reversed", func(t *testing.T) {
		testBatchedStagedMatchesStreamed(t, w, asc, desc)
	})
	t.Run("scans allocate nothing", func(t *testing.T) {
		if race.Enabled {
			t.Skip("the race detector's instrumentation allocates")
		}
		testScansAllocateNothing(t, w, tbl, asc, desc, cov)
	})
}

// testScansAllocateNothing: in steady state the scans allocate nothing,
// under either reader, and neither does the engine's ordered multi-get —
// whether the window resolves as collected or is sorted first.
func testScansAllocateNothing(t *testing.T, w *core.Worker, tbl *core.Table, asc, desc, cov *Index) {
	const start = 5000
	lo := binary.BigEndian.AppendUint64(nil, start)
	// The same rows through the descending index: ^i for i in [start, start+len).
	loDesc := binary.BigEndian.AppendUint64(nil, ^uint64(start+benchScanLen-1))
	hiDesc := binary.BigEndian.AppendUint64(nil, ^uint64(start-1))
	var keys [][]byte
	for i := start; i < start+benchScanLen; i++ {
		keys = append(keys, binary.BigEndian.AppendUint64(nil, uint64(i)))
	}
	n := 0
	visit := func(_, _, _ []byte) bool { n++; return true }
	visitRow := func(int, []byte, error) bool { return true }
	measure := func(name string, rows int, body func(r core.Reader) error) {
		for _, snapshot := range []bool{false, true} {
			run := func() {
				n = 0
				var err error
				if snapshot {
					err = w.RunSnapshot(func(stx *core.SnapTx) error { return body(stx) })
				} else {
					err = runTx(w, func(tx *core.Tx) error { return body(tx) })
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if n != rows {
					t.Fatalf("%s (snapshot %v) visited %d rows, want %d", name, snapshot, n, rows)
				}
			}
			for i := 0; i < 8; i++ {
				run() // grow the pooled scratch and the transaction's buffers
			}
			if got := testing.AllocsPerRun(100, run); got != 0 {
				t.Errorf("%s (snapshot %v): %.1f allocs per %d-row scan, want 0", name, snapshot, got, benchScanLen)
			}
		}
	}
	for _, c := range []struct {
		name string
		rows int
		body func(r core.Reader) error
	}{
		{"GetBatch", 0, func(r core.Reader) error { return r.GetBatch(tbl, keys, visitRow) }},
		{"Scan", benchScanLen, func(r core.Reader) error {
			return Scan(r, asc, lo, nil, benchScanLen, func(_, _, _ []byte) bool { n++; return true })
		}},
		{"ScanCovering", benchScanLen, func(r core.Reader) error {
			return ScanCovering(r, cov, lo, nil, benchScanLen, func(_, _, _ []byte) bool { n++; return true })
		}},
		{"Scan sorted first", benchScanLen, func(r core.Reader) error {
			return Scan(r, desc, loDesc, hiDesc, 0, visit)
		}},
	} {
		measure(c.name, c.rows, c.body)
	}
}

// testBatchedStagedMatchesStreamed pins the two orders against each other
// on allocSetup's mirrored indexes: the descending index's page is the
// ascending one's, reversed.
func testBatchedStagedMatchesStreamed(t *testing.T, w *core.Worker, asc, desc *Index) {
	page := func(ix *Index, lo, hi []byte) (pks [][]byte) {
		if err := runTx(w, func(tx *core.Tx) error {
			pks = pks[:0]
			return Scan(tx, ix, lo, hi, 0, func(sk, pk, val []byte) bool {
				if !bytes.Equal(pk, val[:8]) {
					t.Errorf("%s: pk %x resolved to row %x", ix.Name, pk, val[:8])
				}
				pks = append(pks, append([]byte(nil), pk...))
				return true
			})
		}); err != nil {
			t.Fatal(err)
		}
		return pks
	}
	be := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	up := page(asc, be(7000), be(7100))
	down := page(desc, be(^uint64(7099)), be(^uint64(6999)))
	if len(up) != 100 || len(down) != 100 {
		t.Fatalf("pages of %d and %d rows, want 100", len(up), len(down))
	}
	for i := range up {
		if !bytes.Equal(up[i], down[len(down)-1-i]) {
			t.Fatalf("row %d: streamed %x, staged (reversed) %x", i, up[i], down[len(down)-1-i])
		}
	}
}
