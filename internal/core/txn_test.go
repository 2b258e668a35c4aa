package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"silo/internal/btree"
	"silo/internal/tid"
)

func manualStore(t *testing.T, workers int, mutate func(*Options)) *Store {
	t.Helper()
	opts := DefaultOptions(workers)
	opts.ManualEpochs = true
	if mutate != nil {
		mutate(&opts)
	}
	s := NewStore(opts)
	t.Cleanup(s.Close)
	return s
}

func TestTxAfterDone(t *testing.T) {
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	tx := s.Worker(0).Begin()
	if err := tx.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get(tbl, []byte("k")); err != ErrTxDone {
		t.Fatalf("Get after commit: %v", err)
	}
	if err := tx.Put(tbl, []byte("k"), []byte("x")); err != ErrTxDone {
		t.Fatalf("Put after commit: %v", err)
	}
	if err := tx.Commit(); err != ErrTxDone {
		t.Fatalf("double commit: %v", err)
	}
	tx.Abort() // no-op, must not panic
}

func TestInsertExisting(t *testing.T) {
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	if err := w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("1")) }); err != nil {
		t.Fatal(err)
	}
	err := w.RunOnce(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("2")) })
	if err != ErrKeyExists {
		t.Fatalf("insert existing: %v", err)
	}
	// Original value intact.
	w.Run(func(tx *Tx) error {
		v, err := tx.Get(tbl, []byte("k"))
		if err != nil || string(v) != "1" {
			t.Errorf("got %q %v", v, err)
		}
		return nil
	})
}

func TestInsertAfterDeleteSameTx(t *testing.T) {
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("old")) })
	if err := w.Run(func(tx *Tx) error {
		if err := tx.Delete(tbl, []byte("k")); err != nil {
			return err
		}
		return tx.Insert(tbl, []byte("k"), []byte("new"))
	}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(tx *Tx) error {
		v, err := tx.Get(tbl, []byte("k"))
		if err != nil || string(v) != "new" {
			t.Errorf("got %q %v", v, err)
		}
		return nil
	})
}

func TestInsertThenDeleteSameTx(t *testing.T) {
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	if err := w.Run(func(tx *Tx) error {
		if err := tx.Insert(tbl, []byte("k"), []byte("v")); err != nil {
			return err
		}
		return tx.Delete(tbl, []byte("k"))
	}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(tx *Tx) error {
		if _, err := tx.Get(tbl, []byte("k")); err != ErrNotFound {
			t.Errorf("got %v want ErrNotFound", err)
		}
		return nil
	})
}

func TestInsertOverDeleted(t *testing.T) {
	// Delete commits, then a later transaction re-inserts: it supersedes
	// the absent record (§4.5/§4.9).
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v1")) })
	w.Run(func(tx *Tx) error { return tx.Delete(tbl, []byte("k")) })
	if err := w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v2")) }); err != nil {
		t.Fatal(err)
	}
	w.Run(func(tx *Tx) error {
		v, err := tx.Get(tbl, []byte("k"))
		if err != nil || string(v) != "v2" {
			t.Errorf("got %q %v", v, err)
		}
		return nil
	})
}

func TestPutMissingAndDeleteMissing(t *testing.T) {
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	if err := w.RunOnce(func(tx *Tx) error { return tx.Put(tbl, []byte("nope"), []byte("v")) }); err != ErrNotFound {
		t.Fatalf("put missing: %v", err)
	}
	if err := w.RunOnce(func(tx *Tx) error { return tx.Delete(tbl, []byte("nope")) }); err != ErrNotFound {
		t.Fatalf("delete missing: %v", err)
	}
}

// TestMissingKeyPhantom: a transaction that observed key-absence must abort
// if the key is inserted before it commits (§4.6).
func TestMissingKeyPhantom(t *testing.T) {
	s := testStore(t, 2)
	tbl := s.CreateTable("t")
	s.Worker(0).Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("other"), []byte("x")) })

	tx := s.Worker(0).Begin()
	if _, err := tx.Get(tbl, []byte("ghost")); err != ErrNotFound {
		t.Fatal(err)
	}
	if err := tx.Put(tbl, []byte("other"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	// Concurrent insert of the missing key.
	if err := s.Worker(1).Run(func(tx2 *Tx) error {
		return tx2.Insert(tbl, []byte("ghost"), []byte("boo"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != ErrConflict {
		t.Fatalf("commit after phantom: %v", err)
	}
}

// TestReadValidationAbort: a read-write transaction aborts when a record it
// read is overwritten before commit.
func TestReadValidationAbort(t *testing.T) {
	s := testStore(t, 2)
	tbl := s.CreateTable("t")
	s.Worker(0).Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("0")) })

	tx := s.Worker(0).Begin()
	if _, err := tx.Get(tbl, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := s.Worker(1).Run(func(tx2 *Tx) error { return tx2.Put(tbl, []byte("k"), []byte("1")) }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(tbl, []byte("k"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != ErrConflict {
		t.Fatalf("commit after stale read: %v", err)
	}
	// The concurrent writer's value must have survived.
	s.Worker(0).Run(func(tx *Tx) error {
		v, _ := tx.Get(tbl, []byte("k"))
		if string(v) != "1" {
			t.Errorf("value %q, want 1", v)
		}
		return nil
	})
}

// TestReadOnlyCommitsDespiteLaterWrite: pure reads validate against the
// state they saw; if nothing they read changed, they commit without any
// shared-memory write.
func TestReadOnlyCommit(t *testing.T) {
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v")) })
	if err := w.RunOnce(func(tx *Tx) error {
		_, err := tx.Get(tbl, []byte("k"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLostUpdateCounters is the serializability oracle: concurrent blind
// increment transactions on a small hot keyspace; every committed increment
// must be reflected in the final counter values (OCC must prevent lost
// updates).
func TestLostUpdateCounters(t *testing.T) {
	const (
		keys    = 8
		workers = 4
		txns    = 2000
	)
	s := testStore(t, workers)
	tbl := s.CreateTable("counters")
	key := func(i int) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, uint64(i))
		return b
	}
	s.Worker(0).Run(func(tx *Tx) error {
		for i := 0; i < keys; i++ {
			if err := tx.Insert(tbl, key(i), make([]byte, 8)); err != nil {
				return err
			}
		}
		return nil
	})

	var committed [keys]atomic.Uint64
	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			rng := newTestRNG(uint64(wid) + 1)
			for n := 0; n < txns; n++ {
				// Read-modify-write 1–3 random counters atomically.
				cnt := 1 + rng.Intn(3)
				ks := make([]int, cnt)
				for i := range ks {
					ks[i] = rng.Intn(keys)
				}
				err := s.Worker(wid).Run(func(tx *Tx) error {
					seen := map[int]bool{}
					for _, k := range ks {
						if seen[k] {
							continue
						}
						seen[k] = true
						v, err := tx.Get(tbl, key(k))
						if err != nil {
							return err
						}
						binary.BigEndian.PutUint64(v, binary.BigEndian.Uint64(v)+1)
						if err := tx.Put(tbl, key(k), v); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("worker %d: %v", wid, err)
					return
				}
				seen := map[int]bool{}
				for _, k := range ks {
					if !seen[k] {
						committed[k].Add(1)
						seen[k] = true
					}
				}
			}
		}(wid)
	}
	wg.Wait()

	s.Worker(0).Run(func(tx *Tx) error {
		for i := 0; i < keys; i++ {
			v, err := tx.Get(tbl, key(i))
			if err != nil {
				return err
			}
			got := binary.BigEndian.Uint64(v)
			if got != committed[i].Load() {
				t.Errorf("counter %d: final=%d committed=%d (lost updates!)", i, got, committed[i].Load())
			}
		}
		return nil
	})
}

// TestSnapshotInvariant: writers keep x+y constant; snapshot readers must
// never observe a violated invariant, even mid-update. The reader advances
// the epoch between snapshots, so they fall in ever-later snapshot groups
// while the writers run.
func TestSnapshotInvariant(t *testing.T) {
	s := manualStore(t, 3, func(o *Options) { o.SnapshotK = 2 })
	tbl := s.CreateTable("t")
	const total = 1000
	s.Worker(0).Run(func(tx *Tx) error {
		v := make([]byte, 8)
		binary.BigEndian.PutUint64(v, total/2)
		if err := tx.Insert(tbl, []byte("x"), v); err != nil {
			return err
		}
		return tx.Insert(tbl, []byte("y"), v)
	})
	// A snapshot covering the init: SE past the insert's epoch.
	for init := tid.Word(s.Worker(0).LastCommitTID()).Epoch(); s.Epochs().SnapshotGlobal() <= init; {
		s.AdvanceEpoch()
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for wid := 0; wid < 2; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			rng := newTestRNG(uint64(wid) + 3)
			for !stop.Load() {
				delta := uint64(rng.Intn(10))
				s.Worker(wid).Run(func(tx *Tx) error {
					xv, err := tx.Get(tbl, []byte("x"))
					if err != nil {
						return err
					}
					yv, err := tx.Get(tbl, []byte("y"))
					if err != nil {
						return err
					}
					x := binary.BigEndian.Uint64(xv)
					y := binary.BigEndian.Uint64(yv)
					if x < delta {
						return nil
					}
					binary.BigEndian.PutUint64(xv, x-delta)
					binary.BigEndian.PutUint64(yv, y+delta)
					if err := tx.Put(tbl, []byte("x"), xv); err != nil {
						return err
					}
					return tx.Put(tbl, []byte("y"), yv)
				})
			}
		}(wid)
	}

	bad := 0
	for i := 0; i < 500; i++ {
		s.AdvanceEpoch() // false while a writer lags; the next one catches up
		s.Worker(2).RunSnapshot(func(stx *SnapTx) error {
			xv, err := stx.Get(tbl, []byte("x"))
			if err != nil {
				bad++ // the snapshot covers the init
				return nil
			}
			yv, err := stx.Get(tbl, []byte("y"))
			if err != nil {
				bad++
				return nil
			}
			if binary.BigEndian.Uint64(xv)+binary.BigEndian.Uint64(yv) != total {
				bad++
			}
			return nil
		})
	}
	stop.Store(true)
	wg.Wait()
	if bad != 0 {
		t.Fatalf("%d snapshot reads saw a violated invariant", bad)
	}
}

// TestScanReadOwnWrites: a transaction's own pending inserts, updates, and
// deletes must be visible to its scans.
func TestScanReadOwnWrites(t *testing.T) {
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	w.Run(func(tx *Tx) error {
		tx.Insert(tbl, []byte("b"), []byte("B"))
		tx.Insert(tbl, []byte("d"), []byte("D"))
		return nil
	})
	if err := w.Run(func(tx *Tx) error {
		if err := tx.Insert(tbl, []byte("c"), []byte("C")); err != nil {
			return err
		}
		if err := tx.Put(tbl, []byte("b"), []byte("B2")); err != nil {
			return err
		}
		if err := tx.Delete(tbl, []byte("d")); err != nil {
			return err
		}
		var got []string
		if err := tx.Scan(tbl, []byte("a"), []byte("z"), func(k, v []byte) bool {
			got = append(got, fmt.Sprintf("%s=%s", k, v))
			return true
		}); err != nil {
			return err
		}
		want := "[b=B2 c=C]"
		if fmt.Sprint(got) != want {
			t.Errorf("scan got %v want %v", got, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestGlobalTIDMode exercises the centralized TID variant for correctness
// (its performance is Figure 4's business).
func TestGlobalTIDMode(t *testing.T) {
	opts := DefaultOptions(2)
	opts.GlobalTID = true
	opts.EpochInterval = time.Millisecond
	s := NewStore(opts)
	defer s.Close()
	tbl := s.CreateTable("t")
	var wg sync.WaitGroup
	for wid := 0; wid < 2; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("w%d-%d", wid, i))
				if err := s.Worker(wid).Run(func(tx *Tx) error {
					return tx.Insert(tbl, k, []byte("v"))
				}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(wid)
	}
	wg.Wait()
	if tbl.Tree.Len() != 400 {
		t.Fatalf("Len=%d", tbl.Tree.Len())
	}
}

// TestSecondaryIndexPattern exercises §4.7: a secondary index is another
// table maintained by the transaction; stale index entries cause aborts via
// the ordinary validation rules.
func TestSecondaryIndexPattern(t *testing.T) {
	s := testStore(t, 1)
	primary := s.CreateTable("users")
	byEmail := s.CreateTable("users_by_email")
	w := s.Worker(0)

	put := func(id, email, name string) error {
		return w.Run(func(tx *Tx) error {
			// Remove any old index entry.
			if old, err := tx.Get(primary, []byte(id)); err == nil {
				tx.Delete(byEmail, old) // old value = old email
			}
			if err := tx.Insert(byEmail, []byte(email), []byte(id)); err != nil && err != ErrKeyExists {
				return err
			}
			if _, err := tx.Get(primary, []byte(id)); err == ErrNotFound {
				return tx.Insert(primary, []byte(id), []byte(email))
			}
			return tx.Put(primary, []byte(id), []byte(email))
		})
	}
	lookup := func(email string) (string, error) {
		var id string
		err := w.Run(func(tx *Tx) error {
			v, err := tx.Get(byEmail, []byte(email))
			if err != nil {
				return err
			}
			id = string(v)
			return nil
		})
		return id, err
	}

	if err := put("u1", "a@x.com", "Alice"); err != nil {
		t.Fatal(err)
	}
	if id, err := lookup("a@x.com"); err != nil || id != "u1" {
		t.Fatalf("lookup: %q %v", id, err)
	}
	if err := put("u1", "alice@x.com", "Alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := lookup("a@x.com"); err != ErrNotFound {
		t.Fatalf("stale index entry still present: %v", err)
	}
	if id, err := lookup("alice@x.com"); err != nil || id != "u1" {
		t.Fatalf("new lookup: %q %v", id, err)
	}
}

// TestManyTables spreads a transaction across tables.
func TestManyTables(t *testing.T) {
	s := testStore(t, 1)
	var tbls []*Table
	for i := 0; i < 10; i++ {
		tbls = append(tbls, s.CreateTable(fmt.Sprintf("t%d", i)))
	}
	w := s.Worker(0)
	if err := w.Run(func(tx *Tx) error {
		for i, tbl := range tbls {
			if err := tx.Insert(tbl, []byte("k"), []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, tbl := range tbls {
		if tbl.Tree.Len() != 1 {
			t.Fatalf("table %d: Len=%d", i, tbl.Tree.Len())
		}
	}
	if s.TableByID(3) != tbls[3] || s.Table("t3") != tbls[3] {
		t.Fatal("table lookup mismatch")
	}
	if s.TableByID(999) != nil {
		t.Fatal("bogus table id resolved")
	}
}

func TestInvalidKeys(t *testing.T) {
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	long := make([]byte, 63)
	if err := w.RunOnce(func(tx *Tx) error {
		if _, err := tx.Get(tbl, nil); err != ErrKeyInvalid {
			t.Errorf("Get(nil): %v", err)
		}
		if err := tx.Insert(tbl, long, []byte("v")); err != ErrKeyInvalid {
			t.Errorf("Insert(long): %v", err)
		}
		if err := tx.Put(tbl, []byte{}, []byte("v")); err != ErrKeyInvalid {
			t.Errorf("Put(empty): %v", err)
		}
		if err := tx.Delete(tbl, long); err != ErrKeyInvalid {
			t.Errorf("Delete(long): %v", err)
		}
		if err := tx.Scan(tbl, nil, nil, func(k, v []byte) bool { return true }); err != ErrKeyInvalid {
			t.Errorf("Scan(nil lo): %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.RunSnapshot(func(stx *SnapTx) error {
		if _, err := stx.Get(tbl, long); err != ErrKeyInvalid {
			t.Errorf("snapshot Get(long): %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// 62 bytes is the maximum and must work.
	max := make([]byte, 62)
	max[0] = 'k'
	if err := w.Run(func(tx *Tx) error { return tx.Insert(tbl, max, []byte("v")) }); err != nil {
		t.Fatalf("62-byte key: %v", err)
	}
}

func TestDoubleBeginPanics(t *testing.T) {
	s := testStore(t, 1)
	w := s.Worker(0)
	tx := w.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("second Begin did not panic")
		}
		tx.Abort()
	}()
	w.Begin()
}

// testRNG is a local SplitMix64 (the shared one lives in the ycsb package,
// which depends on core and would create an import cycle here).
type testRNG uint64

func newTestRNG(seed uint64) *testRNG { r := testRNG(seed*2654435761 + 1); return &r }

func (r *testRNG) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *testRNG) Intn(n int) int { return int(r.next() % uint64(n)) }

// TestBulkWriteSetLookups drives a write-set far past writeScanMax, where
// findWrite switches from the linear scan to the hash index, and checks
// every lookup shape against a map: reads of pending writes, overwrites
// of them, delete-then-insert, two tables sharing keys, and keys never
// written. A second run on the same worker must reuse the index without
// allocating for it.
func TestBulkWriteSetLookups(t *testing.T) {
	s := manualStore(t, 1, nil)
	a, b := s.CreateTable("a"), s.CreateTable("b")
	w := s.Worker(0)
	const n = 20 * writeScanMax
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }

	bulk := func(round int) {
		t.Helper()
		want := map[string]string{} // "a/k00001" → pending value; "" = deleted
		err := w.Run(func(tx *Tx) error {
			clear(want)
			for i := 0; i < n; i++ {
				for _, tbl := range []*Table{a, b} {
					v := fmt.Sprintf("%s-%d-%d", tbl.Name, round, i)
					var err error
					if round == 0 {
						err = tx.Insert(tbl, key(i), []byte(v))
					} else {
						err = tx.Put(tbl, key(i), []byte(v))
					}
					if err != nil {
						return fmt.Errorf("write %s/%s: %w", tbl.Name, key(i), err)
					}
					want[tbl.Name+"/"+string(key(i))] = v
				}
				switch i % 7 {
				case 1: // overwrite an earlier pending write
					j := i / 2
					if err := tx.Put(a, key(j), []byte("again")); err != nil {
						return fmt.Errorf("re-put %s: %w", key(j), err)
					}
					want["a/"+string(key(j))] = "again"
				case 3: // delete a pending write, then bring it back
					if err := tx.Delete(b, key(i)); err != nil {
						return fmt.Errorf("delete %s: %w", key(i), err)
					}
					if _, err := tx.Get(b, key(i)); err != ErrNotFound {
						return fmt.Errorf("get of a pending delete: %v", err)
					}
					if err := tx.Insert(b, key(i), []byte("back")); err != nil {
						return fmt.Errorf("re-insert %s: %w", key(i), err)
					}
					want["b/"+string(key(i))] = "back"
				}
			}
			for i := 0; i < n; i++ {
				for _, tbl := range []*Table{a, b} {
					got, err := tx.Get(tbl, key(i))
					if err != nil || string(got) != want[tbl.Name+"/"+string(key(i))] {
						return fmt.Errorf("pending %s/%s = %q, %v; want %q", tbl.Name, key(i), got, err, want[tbl.Name+"/"+string(key(i))])
					}
				}
			}
			if _, err := tx.Get(a, []byte("never-written")); err != ErrNotFound {
				return fmt.Errorf("get of an unwritten key: %v", err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Committed state equals the pending state the lookups reported.
		if err := w.Run(func(tx *Tx) error {
			for k, v := range want {
				tbl := a
				if k[0] == 'b' {
					tbl = b
				}
				got, err := tx.Get(tbl, []byte(k[2:]))
				if err != nil || string(got) != v {
					return fmt.Errorf("committed %s = %q, %v; want %q", k, got, err, v)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	bulk(0)
	idx := &w.tx.widx[0]
	bulk(1)
	if &w.tx.widx[0] != idx {
		t.Error("the second bulk transaction allocated a new write index")
	}
}

// TestNodeSetLookupsAcrossThreshold checks findNode's three regimes — the
// last-node fast path, the linear scan up to nodeScanMax entries, the hash
// index beyond — against a map, at every size around the switch: a
// re-observed node keeps its first version, this transaction's own insert
// advances exactly the entry it matches, and a stale Old is a conflict
// wherever the entry sits.
func TestNodeSetLookupsAcrossThreshold(t *testing.T) {
	s := manualStore(t, 1, nil)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	for _, n := range []int{1, 2, nodeScanMax - 1, nodeScanMax, nodeScanMax + 1, nodeScanMax + 2, 2*nodeScanMax + 1, 20 * nodeScanMax} {
		nodes := make([]btree.Node, n)
		want := map[*btree.Node]uint64{}
		tx := w.Begin()
		check := func(when string) {
			t.Helper()
			if len(tx.nodes) != len(want) {
				t.Fatalf("n=%d %s: node-set has %d entries, want %d", n, when, len(tx.nodes), len(want))
			}
			for i := range tx.nodes {
				if e := tx.nodes[i]; want[e.n] != e.version || tx.findNode(e.n) != i {
					t.Fatalf("n=%d %s: entry %d has version %d (want %d), found at %d", n, when, i, e.version, want[e.n], tx.findNode(e.n))
				}
			}
			if i := tx.findNode(new(btree.Node)); i != -1 {
				t.Fatalf("n=%d %s: a node never observed was found at %d", n, when, i)
			}
		}
		for i := range nodes {
			tx.addNode(tbl, &nodes[i], uint64(2*i))
			want[&nodes[i]] = uint64(2 * i)
			tx.addNode(tbl, &nodes[i], 999) // the leaf just seen, again
			tx.addNode(tbl, &nodes[i/2], 999)
		}
		check("after observing")
		for i := range nodes {
			ch := []btree.VersionChange{{Node: &nodes[i], Old: uint64(2 * i), New: uint64(2*i + 2)}}
			if err := tx.applyNodeChanges(tbl, ch); err != nil {
				t.Fatalf("n=%d: own insert under entry %d: %v", n, i, err)
			}
			want[&nodes[i]] += 2
			if err := tx.applyNodeChanges(tbl, ch); err != ErrConflict {
				t.Fatalf("n=%d: stale Old under entry %d: %v, want ErrConflict", n, i, err)
			}
		}
		check("after own inserts")
		created := new(btree.Node)
		if err := tx.applyNodeChanges(tbl, []btree.VersionChange{{Node: created, New: 2, Created: true}}); err != nil {
			t.Fatal(err)
		}
		want[created] = 2
		check("after a created sibling")
		tx.Abort()
	}
}

// TestNodeSetCapacityReleased is TestBulkWriteSetLookups' capacity check
// for the node-set: a worker keeps the arrays of an ordinary scan between
// transactions and gives back those of a 100k-leaf one.
func TestNodeSetCapacityReleased(t *testing.T) {
	s := manualStore(t, 1, nil)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	observe := func(n int) {
		t.Helper()
		nodes := make([]btree.Node, n)
		if err := w.Run(func(tx *Tx) error {
			for i := range nodes {
				tx.addNode(tbl, &nodes[i], 0)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	observe(maxNodeSet / 2)
	set, idx := &w.tx.nodes[:1][0], &w.tx.nidx[:1][0]
	observe(maxNodeSet / 2)
	if &w.tx.nodes[:1][0] != set || &w.tx.nidx[:1][0] != idx {
		t.Error("the second scan of the same width allocated a new node-set or index")
	}
	observe(100_000)
	if c := cap(w.tx.nodes); c > maxNodeSet {
		t.Errorf("node-set capacity %d kept after a 100k-leaf scan, limit %d", c, maxNodeSet)
	}
	if c := cap(w.tx.nidx); c > 4*maxNodeSet {
		t.Errorf("node index capacity %d kept after a 100k-leaf scan", c)
	}
}
