package core

import (
	"fmt"
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

// TestScannedKeysOutliveTheScanBuffer: the key a scan callback sees lives
// in the tree's pooled leaf buffer, which the next scan — this worker's or
// another's — rewrites. The read-set must hold its own copy, or the abort
// that blames a scanned record names whatever key landed in that slot
// later (and, across workers, reads it while it is being written). Range
// and batched reads both copy, and the copy allocates nothing once the
// arena has grown (a batched read's remaining allocations are the tree's
// own leaf-run buffers).
func TestScannedKeysOutliveTheScanBuffer(t *testing.T) {
	s := manualStore(t, 2, nil)
	tbl, other := s.CreateTable("t"), s.CreateTable("other")
	w0, w1 := s.Worker(0), s.Worker(1)
	key := func(i int) []byte { return []byte(fmt.Sprintf("row%04d", i)) }
	const rows = 200 // several leaves
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
	sorted := make([][]byte, rows)
	for i := range sorted {
		sorted[i] = key(i)
	}
	reads := map[string]func(tx *Tx) error{
		"Scan": func(tx *Tx) error {
			return tx.Scan(tbl, []byte{0}, nil, func(_, _ []byte) bool { return true })
		},
		"GetBatch": func(tx *Tx) error {
			return tx.GetBatch(tbl, sorted, func(int, []byte, error) bool { return true })
		},
	}
	for name, read := range reads {
		victim := key(150)
		tx := w0.Begin()
		if err := read(tx); err != nil {
			t.Fatal(err)
		}
		// The same goroutine scans another table: the pool hands the same
		// leaf buffer back and the scan fills it with other keys.
		if err := tx.Scan(other, []byte{0}, nil, func(_, _ []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if err := w1.Run(func(tx *Tx) error { return tx.Put(tbl, victim, []byte("w")) }); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != ErrConflict {
			t.Fatalf("%s: commit over a concurrent update: %v, want ErrConflict", name, err)
		}
		// The flight recorder's newest event is that abort's forensics.
		events := s.Flight().Dump()
		if ev := events[len(events)-1]; ev.Kind != trace.EvAbort || ev.Table != tbl.ID || ev.A != trace.HashKey(victim) {
			t.Errorf("%s: abort recorded as %v table %d key hash %#x; want abort, table %d, %q = %#x",
				name, ev.Kind, ev.Table, ev.A, tbl.ID, victim, trace.HashKey(victim))
		}
		if name != "Scan" {
			continue
		}
		if n := testing.AllocsPerRun(50, func() {
			tx := w0.Begin()
			if err := read(tx); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
		}); n != 0 {
			t.Errorf("%s: %v allocations per transaction in steady state, want 0", name, n)
		}
	}
}
