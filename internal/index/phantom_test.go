package index

import (
	"fmt"
	"testing"

	"silo/internal/core"
	"silo/internal/obs"
)

// TestIndexScanPhantomProtection is the deterministic phantom regression
// test: a serializable transaction scans a secondary range, a concurrent
// transaction commits an insert whose secondary key lands inside that
// range, and the scanner must abort at commit (§4.6 applied to the entry
// tree). A control insert outside the range must not abort it.
func TestIndexScanPhantomProtection(t *testing.T) {
	for _, tc := range []struct {
		name         string
		city         string
		wantConflict bool
	}{
		{"insert inside scanned range", "C005", true},
		// The control insert lands far from the scanned range; the entry
		// tree is populated widely enough that its leaf is not one the
		// scan observed, so OCC has no reason to abort.
		{"insert outside scanned range", "C900", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore(t, 2)
			users := s.CreateTable("users")
			byCity := mustNew(t, s, users, "users_by_city", false, cityKey)
			w0, w1 := s.Worker(0), s.Worker(1)

			// Cities C000..C299, one user each, spreading entries over many
			// tree leaves. C005 is left vacant for the phantom.
			for i := 0; i < 300; i++ {
				if i == 5 {
					continue
				}
				insertUser(t, w0, users, i, city(i), uint64(i), name(i))
			}

			// Reader: scan cities [C000, C010), resolving rows.
			tx := w0.Begin()
			n := 0
			if err := Scan(tx, byCity, []byte("C000"), []byte("C010"), 0, func(sk, pk, val []byte) bool {
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != 9 {
				t.Fatalf("scan saw %d rows, want 9", n)
			}

			// Writer: commit a row whose secondary key lands inside or
			// outside the scanned range.
			insertUser(t, w1, users, 900, tc.city, 900, "zed")

			err := tx.Commit()
			if tc.wantConflict && err != core.ErrConflict {
				t.Fatalf("scanner committed despite phantom: err = %v", err)
			}
			if !tc.wantConflict && err != nil {
				t.Fatalf("scanner aborted without phantom: err = %v", err)
			}
		})
	}
}

func city(i int) string { return fmt.Sprintf("C%03d", i) }
func name(i int) string { return fmt.Sprintf("name%03d", i) }

// TestIndexScanSeesConcurrentRowUpdate checks the primary-tree half of the
// validation: updating a resolved row (without moving its secondary key)
// between scan and commit also aborts the scanner, because resolved reads
// join the read-set.
func TestIndexScanSeesConcurrentRowUpdate(t *testing.T) {
	s := newStore(t, 2)
	users := s.CreateTable("users")
	byCity := mustNew(t, s, users, "users_by_city", false, cityKey)
	w0, w1 := s.Worker(0), s.Worker(1)

	insertUser(t, w0, users, 1, "AMS", 1, "ada")

	tx := w0.Begin()
	if err := Scan(tx, byCity, []byte("AMS"), []byte("AMT"), 0, func(sk, pk, val []byte) bool {
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := runTx(w1, func(wtx *core.Tx) error {
		return wtx.Put(users, []byte("u001"), userVal("AMS", 99, "ada"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != core.ErrConflict {
		t.Fatalf("scanner committed despite row update: err = %v", err)
	}
}

// TestBoundedScanObservesOnlyItsPrefix: max bounds what a scan observes,
// not only what it emits. Over a 1 000-entry range, max = 1 reads one
// entry and one row, and its node-set holds the first entry's leaf alone —
// so an insert at the far end of the range commits under it, while the
// unbounded scan of the same range reads everything and aborts on it.
func TestBoundedScanObservesOnlyItsPrefix(t *testing.T) {
	for _, tc := range []struct {
		max          int
		wantReads    uint64
		wantConflict bool
	}{
		{1, 2, false},
		{0, 2000, true},
	} {
		t.Run(fmt.Sprintf("max=%d", tc.max), func(t *testing.T) {
			s := newStore(t, 2)
			users := s.CreateTable("users")
			byCity := mustNew(t, s, users, "users_by_city", false, cityKey)
			w0, w1 := s.Worker(0), s.Worker(1)
			for i := 0; i < 1000; i++ {
				insertUser(t, w0, users, i, city(i), uint64(i), name(i))
			}

			// A transaction's read tally reaches silo_core_reads_total when
			// it commits or aborts, so the scan's reads are the delta across
			// the whole transaction less those of w1's interleaved insert.
			reads := func() uint64 {
				var snap obs.Snapshot
				s.CollectObs(&snap)
				return snap.Value("silo_core_reads_total", "")
			}
			before := reads()
			tx := w0.Begin()
			n := 0
			if err := Scan(tx, byCity, []byte("C000"), []byte("D"), tc.max, func(sk, pk, val []byte) bool {
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}

			mid := reads()
			insertUser(t, w1, users, 2000, city(999), 2000, "zed")
			interleaved := reads() - mid
			err := tx.Commit()
			if tc.wantConflict && err != core.ErrConflict {
				t.Fatalf("unbounded scan committed despite a phantom in its range: %v", err)
			}
			if !tc.wantConflict && err != nil {
				t.Fatalf("max=1 scan aborted on a write outside its prefix: %v", err)
			}
			if got := reads() - before - interleaved; got != tc.wantReads || n != int(tc.wantReads/2) {
				t.Fatalf("scan read %d records and emitted %d rows, want %d and %d", got, n, tc.wantReads, tc.wantReads/2)
			}
		})
	}
}
