package catalog

import (
	"testing"

	"silo/internal/core"
	"silo/internal/index"
	"silo/internal/obs"
)

// TestCollectObsScanModes: the catalog's counters tally how reads through
// any of its indexes resolve, by mode, and keep the tally when an index is
// dropped.
func TestCollectObsScanModes(t *testing.T) {
	s, c := newStore(t)
	w := s.Worker(0)
	users, _ := c.CreateTable("users")
	insertUser(t, w, users, 1, "AMS", 10, "ada")
	insertUser(t, w, users, 2, "BER", 20, "bob")
	byCity, err := c.CreateIndex(w, users, "users_by_city", false, []index.Seg{{FromValue: true, Off: 0, Len: 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName, err := c.CreateIndex(w, users, "users_by_name", true, []index.Seg{{FromValue: true, Off: 12, Len: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}

	all := func(sk, pk, val []byte) bool { return true }
	if err := w.Run(func(tx *core.Tx) error {
		if err := index.Scan(tx, byCity, []byte("AMS"), []byte("AMT"), 0, all); err != nil {
			return err
		}
		if err := index.Scan(tx, byName, []byte("a"), []byte("c"), 0, all); err != nil {
			return err
		}
		if _, _, err := index.Lookup(tx, byName, []byte("ada")); err != nil {
			return err
		}
		return index.ScanEntries(tx, byCity, []byte("A"), []byte("C"), func(sk, pk []byte) bool { return true })
	}); err != nil {
		t.Fatal(err)
	}
	// The reader, not the function, makes a scan a snapshot scan.
	if err := w.RunSnapshot(func(stx *core.SnapTx) error {
		return index.Scan(stx, byCity, []byte("A"), []byte("C"), 0, all)
	}); err != nil {
		t.Fatal(err)
	}

	want := map[string]uint64{"batched": 2, "batched_streamed": 0, "entries": 1, "covering": 0, "snapshot": 1}
	check := func(when string) {
		t.Helper()
		var snap obs.Snapshot
		c.CollectObs(&snap)
		for mode, n := range want {
			if got := snap.Value("silo_index_scans_total", mode); got != n {
				t.Errorf("%s: scans{mode=%s} = %d, want %d", when, mode, got, n)
			}
		}
		if snap.Get("silo_index_scans_total", "per_entry") != nil {
			t.Errorf("%s: retired mode per_entry is still exported", when)
		}
		if got := snap.Value("silo_index_lookups_total", ""); got != 1 {
			t.Errorf("%s: lookups = %d, want 1", when, got)
		}
	}
	check("before the drop")
	if err := c.DropIndex("users_by_name"); err != nil {
		t.Fatal(err)
	}
	check("after the drop")
}
