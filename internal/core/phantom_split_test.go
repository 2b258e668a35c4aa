package core

import (
	"fmt"
	"slices"
	"testing"

	"silo/internal/btree"
	"silo/internal/record"
)

// The tree splits a full leaf in one of three shapes (btree.insertSplit):
// in half, or — an insert right after the leaf's previous insert — at the
// insertion point, which past the leaf's last key means nothing moves and
// the new key sits alone in the right sibling. Every shape must look
// the same to §4.6's node-set: the split leaf's version moves, the sibling
// is reported Created. splitShapes builds one full leaf per shape, keyed
// splitKey(i), so that inserting probe splits it that way.
var splitShapes = []struct {
	name     string
	load     []int  // keys loaded, in order: 16 of them, filling the root leaf
	probe    int    // the insert that splits
	sizes    [2]int // keys per leaf afterwards; tells the shapes apart
	intruder int    // a free key inside the created sibling's range
}{
	{"halved", seq(0, 16, 20), 10, [2]int{9, 8}, 290},
	{"nothing moved", seq(0, 16, 20), 320, [2]int{16, 1}, 330},
	// Six foreign keys first, then an ascending run below them: the run's
	// next key lands at slot 10, right after its previous one.
	{"at the insertion point", append(seq(2000, 6, 20), seq(0, 10, 20)...), 200, [2]int{11, 6}, 2050},
}

func seq(from, n, step int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i*step
	}
	return out
}

func splitKey(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }

// splitStore loads shape's full leaf into table "t" and, beside it, a
// table wide enough that scanning it carries a node-set past nodeScanMax,
// onto the hash index.
func splitStore(t *testing.T, load []int) (s *Store, tbl, wide *Table) {
	t.Helper()
	s = testStore(t, 2)
	tbl, wide = s.CreateTable("t"), s.CreateTable("wide")
	if err := s.Worker(0).Run(func(tx *Tx) error {
		for _, i := range load {
			if err := tx.Insert(tbl, splitKey(i), []byte("v")); err != nil {
				return err
			}
		}
		for i := 0; i < 16*(nodeScanMax+8); i++ {
			if err := tx.Insert(wide, splitKey(i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := leafSizes(tbl); !slices.Equal(got, []int{16}) {
		t.Fatalf("loaded leaves hold %v keys, want one full leaf", got)
	}
	return s, tbl, wide
}

func leafSizes(tbl *Table) (sizes []int) {
	tbl.Tree.Scan([]byte{0}, nil,
		func(*btree.Node, uint64) { sizes = append(sizes, 0) },
		func([]byte, *record.Record) bool { sizes[len(sizes)-1]++; return true })
	return sizes
}

// beginScanned starts a transaction on worker 0 that has scanned all of
// tbl — after all of wide when hashed, so the leaf under test joins a
// node-set that is already on the hash index.
func beginScanned(t *testing.T, s *Store, tbl, wide *Table, hashed bool) *Tx {
	t.Helper()
	tx := s.Worker(0).Begin()
	all := func(_, _ []byte) bool { return true }
	if hashed {
		if err := tx.Scan(wide, splitKey(0), nil, all); err != nil {
			t.Fatal(err)
		}
		if len(tx.nodes) <= nodeScanMax {
			t.Fatalf("node-set of %d entries is not past nodeScanMax", len(tx.nodes))
		}
	}
	if err := tx.Scan(tbl, splitKey(0), nil, all); err != nil {
		t.Fatal(err)
	}
	return tx
}

func forEachSplitShape(t *testing.T, fn func(t *testing.T, shape int, hashed bool)) {
	for i, sh := range splitShapes {
		for _, hashed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/hashed=%v", sh.name, hashed), func(t *testing.T) { fn(t, i, hashed) })
		}
	}
}

func insertOn(t *testing.T, w *Worker, tbl *Table, key int) {
	t.Helper()
	if err := w.Run(func(tx *Tx) error { return tx.Insert(tbl, splitKey(key), []byte("intruder")) }); err != nil {
		t.Fatal(err)
	}
}

// TestPhantomAcrossSplit: T1 scans a range whose end lies in full leaf L;
// T2 inserts into that range, splitting L, and commits; T1 must abort. For
// "nothing moved" no key of L goes anywhere — only its version says that
// the range it answers for has shrunk.
func TestPhantomAcrossSplit(t *testing.T) {
	forEachSplitShape(t, func(t *testing.T, shape int, hashed bool) {
		sh := splitShapes[shape]
		s, tbl, wide := splitStore(t, sh.load)
		tx := beginScanned(t, s, tbl, wide, hashed)
		insertOn(t, s.Worker(1), tbl, sh.probe)
		if got := leafSizes(tbl); !slices.Equal(got, sh.sizes[:]) {
			t.Fatalf("split left %v keys per leaf, want %v", got, sh.sizes)
		}
		if err := tx.Commit(); err != ErrConflict {
			t.Fatalf("phantom insert at %s missed (commit=%v)", splitKey(sh.probe), err)
		}
	})
}

// TestPhantomAfterSelfSplit covers the subtle corner of §4.6's node-set
// maintenance: a transaction scans a range, then its own insert splits a
// scanned leaf (which must NOT abort it — the node-set entry advances to
// the new version, and the freshly created sibling joins the node-set).
// If a concurrent transaction then inserts anywhere into the range the
// scanner must still abort: the range it depends on changed.
func TestPhantomAfterSelfSplit(t *testing.T) {
	forEachSplitShape(t, func(t *testing.T, shape int, hashed bool) {
		sh := splitShapes[shape]
		// -1: no interference; then a free key next to each loaded one.
		for _, probe := range append([]int{-1}, sh.load...) {
			s, tbl, wide := splitStore(t, sh.load)
			tx := beginScanned(t, s, tbl, wide, hashed)
			if err := tx.Insert(tbl, splitKey(sh.probe), []byte("mine")); err != nil {
				t.Fatalf("self insert: %v", err)
			}
			if got := leafSizes(tbl); !slices.Equal(got, sh.sizes[:]) {
				t.Fatalf("split left %v keys per leaf, want %v", got, sh.sizes)
			}
			if probe < 0 {
				// A second insert of its own, into the created sibling: that
				// entry too must be found and advanced, not left stale.
				if err := tx.Insert(tbl, splitKey(sh.intruder), []byte("mine")); err != nil {
					t.Fatalf("self insert: %v", err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("self-split aborted the scanner: %v", err)
				}
				continue
			}
			insertOn(t, s.Worker(1), tbl, probe+5)
			if err := tx.Commit(); err != ErrConflict {
				t.Fatalf("phantom insert at %s missed (commit=%v)", splitKey(probe+5), err)
			}
		}
	})
}

// TestSelfSplitKeepsRangeCovered drives the concurrent insert into the
// created sibling — a node the scanner never visited. Forgetting to add
// created siblings to the node-set (or, hashed, to its index) is exactly
// the bug this test exists to catch.
func TestSelfSplitKeepsRangeCovered(t *testing.T) {
	forEachSplitShape(t, func(t *testing.T, shape int, hashed bool) {
		sh := splitShapes[shape]
		s, tbl, wide := splitStore(t, sh.load)
		tx := beginScanned(t, s, tbl, wide, hashed)
		if err := tx.Insert(tbl, splitKey(sh.probe), []byte("mine")); err != nil {
			t.Fatal(err)
		}
		created := tx.nodes[len(tx.nodes)-1].n
		insertOn(t, s.Worker(1), tbl, sh.intruder)
		if _, n, _ := tbl.Tree.Get(splitKey(sh.intruder)); n != created {
			t.Fatalf("%s did not land in the created sibling", splitKey(sh.intruder))
		}
		if err := tx.Commit(); err != ErrConflict {
			t.Fatalf("insert into created sibling escaped the node-set: %v", err)
		}
	})
}
