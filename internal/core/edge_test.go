package core

import (
	"fmt"
	"sync"
	"testing"

	"silo/internal/trace"
)

func TestEmptyTransactionCommits(t *testing.T) {
	s := testStore(t, 1)
	if err := s.Worker(0).RunOnce(func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestScanEmptyAndInvertedRanges(t *testing.T) {
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	w.Run(func(tx *Tx) error {
		for i := 0; i < 10; i++ {
			if err := tx.Insert(tbl, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	})
	if err := w.Run(func(tx *Tx) error {
		n := 0
		// hi < lo: empty.
		if err := tx.Scan(tbl, []byte("k9"), []byte("k1"), func(_, _ []byte) bool { n++; return true }); err != nil {
			return err
		}
		if n != 0 {
			t.Errorf("inverted range saw %d keys", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Range beyond all keys: empty, but still registers a leaf for phantom
	// protection (checked in a fresh transaction so node-set dedup against
	// earlier scans cannot mask it).
	if err := w.Run(func(tx *Tx) error {
		n := 0
		if err := tx.Scan(tbl, []byte("zzz"), nil, func(_, _ []byte) bool { n++; return true }); err != nil {
			return err
		}
		if n != 0 {
			t.Errorf("beyond-end range saw %d keys", n)
		}
		if len(tx.nodes) == 0 {
			t.Error("empty scan registered no node (phantom hole)")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLongTransactionEpochRefresh(t *testing.T) {
	// A long transaction blocks the second epoch advance (E ≤ e_w + 1)
	// until it refreshes, per §4.1.
	s := manualStore(t, 1, nil)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v")) })

	e0 := s.Epochs().Global()
	tx := w.Begin()
	if _, err := tx.Get(tbl, []byte("k")); err != nil {
		t.Fatal(err)
	}
	s.AdvanceEpoch() // ok: E → e0+1
	if s.AdvanceEpoch() {
		t.Fatal("epoch advanced past e_w + 1 during a long transaction")
	}
	if got := s.Epochs().Global(); got != e0+1 {
		t.Fatalf("E=%d want %d", got, e0+1)
	}
	w.RefreshEpoch()
	if !s.AdvanceEpoch() {
		t.Fatal("epoch blocked after refresh")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateWritesSameKeyOneEntry(t *testing.T) {
	// Multiple Puts to one key collapse to one write-set entry and one
	// installed value.
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("0")) })
	if err := w.Run(func(tx *Tx) error {
		for i := 0; i < 5; i++ {
			if err := tx.Put(tbl, []byte("k"), []byte{byte('a' + i)}); err != nil {
				return err
			}
		}
		if len(tx.writes) != 1 {
			t.Errorf("write set has %d entries", len(tx.writes))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(tx *Tx) error {
		v, _ := tx.Get(tbl, []byte("k"))
		if string(v) != "e" {
			t.Errorf("final value %q want e", v)
		}
		return nil
	})
}

func TestLargeValues(t *testing.T) {
	// Values above the arena's top size class fall through to the heap and
	// must still round-trip.
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i)
	}
	if err := w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("big"), big) }); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a different huge value (same length: in-place path).
	big2 := make([]byte, 64<<10)
	for i := range big2 {
		big2[i] = byte(i * 3)
	}
	if err := w.Run(func(tx *Tx) error { return tx.Put(tbl, []byte("big"), big2) }); err != nil {
		t.Fatal(err)
	}
	w.Run(func(tx *Tx) error {
		v, err := tx.Get(tbl, []byte("big"))
		if err != nil || len(v) != len(big2) {
			t.Fatalf("len=%d err=%v", len(v), err)
		}
		for i := range v {
			if v[i] != big2[i] {
				t.Fatalf("byte %d differs", i)
			}
		}
		return nil
	})
}

func TestZeroByteAndBoundaryValues(t *testing.T) {
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	if err := w.Run(func(tx *Tx) error {
		if err := tx.Insert(tbl, []byte("empty"), nil); err != nil {
			return err
		}
		return tx.Insert(tbl, []byte("one"), []byte{0})
	}); err != nil {
		t.Fatal(err)
	}
	w.Run(func(tx *Tx) error {
		v, err := tx.Get(tbl, []byte("empty"))
		if err != nil || len(v) != 0 {
			t.Errorf("empty value: %q %v", v, err)
		}
		v, err = tx.Get(tbl, []byte("one"))
		if err != nil || len(v) != 1 || v[0] != 0 {
			t.Errorf("one-byte value: %q %v", v, err)
		}
		return nil
	})
	// Grow and shrink across the overwrite boundary.
	for _, n := range []int{0, 1, 100, 1, 0, 50} {
		val := make([]byte, n)
		if err := w.Run(func(tx *Tx) error { return tx.Put(tbl, []byte("empty"), val) }); err != nil {
			t.Fatalf("resize to %d: %v", n, err)
		}
	}
	w.Run(func(tx *Tx) error {
		v, _ := tx.Get(tbl, []byte("empty"))
		if len(v) != 50 {
			t.Errorf("final len=%d", len(v))
		}
		return nil
	})
}

func TestGetAppendSemantics(t *testing.T) {
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	w.Run(func(tx *Tx) error { return tx.Insert(tbl, []byte("k"), []byte("val")) })
	if err := w.Run(func(tx *Tx) error {
		buf := []byte("prefix-")
		out, err := tx.GetAppend(tbl, []byte("k"), buf)
		if err != nil {
			return err
		}
		if string(out) != "prefix-val" {
			t.Errorf("GetAppend: %q", out)
		}
		// Missing key leaves buf unchanged.
		out2, err := tx.GetAppend(tbl, []byte("nope"), buf)
		if err != ErrNotFound || string(out2) != "prefix-" {
			t.Errorf("GetAppend missing: %q %v", out2, err)
		}
		// Read-own-write.
		if err := tx.Put(tbl, []byte("k"), []byte("new")); err != nil {
			return err
		}
		out3, err := tx.GetAppend(tbl, []byte("k"), nil)
		if err != nil || string(out3) != "new" {
			t.Errorf("GetAppend own write: %q %v", out3, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAbortForensicsByEntryPoint: every operation that puts a record in
// the read-set, or a leaf in the node-set, lets a failed validation name
// it. The newest flight-recorder event is the abort, with its reason, the
// table id, the key's 8-byte prefix and its hash (a leaf has no key). The
// read-set keeps each key as an end offset into one arena, so every case
// reads another key first: naming the failed entry by its neighbour's key
// range fails here. A scanned or batched key lives in the tree's pooled
// leaf buffer, which the next scan — this worker's or another's — rewrites,
// so every case scans another table before it commits: the read-set must
// hold its own copy.
func TestAbortForensicsByEntryPoint(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("row%04d", i)) }
	const rows = 200 // several leaves
	victim, fresh, missing := key(150), []byte("row0150+new"), []byte("row0150+gap")
	sorted := make([][]byte, rows)
	for i := range sorted {
		sorted[i] = key(i)
	}
	put := func(k []byte) func(tx *Tx, tbl *Table) error {
		return func(tx *Tx, tbl *Table) error { return tx.Put(tbl, k, []byte("w")) }
	}
	insert := func(k []byte) func(tx *Tx, tbl *Table) error {
		return func(tx *Tx, tbl *Table) error { return tx.Insert(tbl, k, []byte("w")) }
	}
	cases := []struct {
		name   string
		setup  func(tx *Tx, tbl *Table) error // committed before the transaction begins
		read   func(tx *Tx, tbl *Table) error
		clash  func(tx *Tx, tbl *Table) error // committed by another worker in between
		key    []byte                         // nil: the abort names a leaf
		reason abortReason
	}{
		{name: "Get", read: func(tx *Tx, tbl *Table) error {
			_, err := tx.Get(tbl, victim)
			return err
		}, clash: put(victim), key: victim},
		{name: "GetAppend", read: func(tx *Tx, tbl *Table) error {
			_, err := tx.GetAppend(tbl, victim, make([]byte, 0, 8))
			return err
		}, clash: put(victim), key: victim},
		{name: "GetBatch", read: func(tx *Tx, tbl *Table) error {
			return tx.GetBatch(tbl, sorted, func(int, []byte, error) bool { return true })
		}, clash: put(victim), key: victim},
		{name: "Scan", read: func(tx *Tx, tbl *Table) error {
			return tx.Scan(tbl, []byte{0}, nil, func(_, _ []byte) bool { return true })
		}, clash: put(victim), key: victim},
		{name: "Put", read: put(victim), clash: put(victim), key: victim},
		{name: "Insert over a tombstone", setup: func(tx *Tx, tbl *Table) error {
			return tx.Delete(tbl, victim)
		}, read: insert(victim), clash: insert(victim), key: victim},
		{name: "Insert of a new key", read: insert(fresh), clash: insert(fresh), key: fresh},
		{name: "Delete", read: func(tx *Tx, tbl *Table) error {
			return tx.Delete(tbl, victim)
		}, clash: put(victim), key: victim},
		{name: "missing key", read: func(tx *Tx, tbl *Table) error {
			if _, err := tx.Get(tbl, missing); err != ErrNotFound {
				return fmt.Errorf("Get of a missing key: %v", err)
			}
			return nil
		}, clash: insert(missing), reason: abortNodeValidation},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := manualStore(t, 2, nil)
			other, tbl := s.CreateTable("other"), s.CreateTable("t") // tbl.ID = 1
			w0, w1 := s.Worker(0), s.Worker(1)
			if err := w0.Run(func(tx *Tx) error {
				for i := 0; i < rows; i++ {
					if err := tx.Insert(tbl, key(i), []byte("v")); err != nil {
						return err
					}
					if err := tx.Insert(other, []byte(fmt.Sprintf("zzz%04d", i)), []byte("v")); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if c.setup != nil {
				if err := w1.Run(func(tx *Tx) error { return c.setup(tx, tbl) }); err != nil {
					t.Fatal(err)
				}
			}
			tx := w0.Begin()
			if _, err := tx.Get(tbl, key(10)); err != nil {
				t.Fatal(err)
			}
			if err := c.read(tx, tbl); err != nil {
				t.Fatal(err)
			}
			// The same goroutine scans another table: the pool hands the
			// same leaf buffer back and the scan fills it with other keys.
			if err := tx.Scan(other, []byte{0}, nil, func(_, _ []byte) bool { return true }); err != nil {
				t.Fatal(err)
			}
			if err := w1.Run(func(tx *Tx) error { return c.clash(tx, tbl) }); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != ErrConflict {
				t.Fatalf("commit over a concurrent write: %v, want ErrConflict", err)
			}
			var hash uint64
			if c.key != nil {
				hash = trace.HashKey(c.key)
			}
			events := s.Flight().Dump()
			ev := events[len(events)-1]
			if ev.Kind != trace.EvAbort || ev.Aux != uint16(c.reason) || ev.Table != tbl.ID ||
				ev.Key != trace.KeyPrefix(c.key) || ev.A != hash {
				t.Errorf("abort recorded as %v reason %d table %d key %q hash %#x; want abort, reason %d, table %d, %q = %#x",
					ev.Kind, ev.Aux, ev.Table, ev.Key, ev.A, c.reason, tbl.ID, c.key, hash)
			}
		})
	}
}

// TestTableLookupDuringCreate: lookups by name and by id take no lock, so
// they run while CreateTable publishes new tables. Under -race this
// checks the copy-on-write publication; in any build it checks that a
// lookup sees either nothing or the one table of that name, with the id
// that indexes it, and that creation stays idempotent under contention.
func TestTableLookupDuringCreate(t *testing.T) {
	s := NewStore(DefaultOptions(1))
	defer s.Close()
	const tables = 200
	name := func(i int) string { return fmt.Sprintf("t%03d", i) }
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < tables; i++ {
				if tb := s.CreateTable(name(i)); tb.Name != name(i) {
					t.Errorf("CreateTable(%s) returned %s", name(i), tb.Name)
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seen := 0; seen < tables; {
				seen = 0
				for i := 0; i < tables; i++ {
					tb := s.Table(name(i))
					if tb == nil {
						continue
					}
					seen++
					if tb.Name != name(i) || s.TableByID(tb.ID) != tb {
						t.Errorf("lookup of %s: table %s id %d, by id %v", name(i), tb.Name, tb.ID, s.TableByID(tb.ID))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := len(s.Tables()); n != tables {
		t.Errorf("%d tables after %d concurrent double creates", n, tables)
	}
}
