package index

import (
	"testing"

	"silo/internal/core"
	"silo/internal/obs"
)

func TestCollectObsScanModes(t *testing.T) {
	s := newStore(t, 1)
	users := s.CreateTable("users")
	w := s.Worker(0)
	byCity := mustNew(t, s, users, "users_by_city", false, cityKey)
	r := NewRegistry()
	r.Register(byCity)

	insertUser(t, w, users, 1, "AMS", 10, "ada")
	insertUser(t, w, users, 2, "BER", 20, "bob")

	collect(t, w, byCity, []byte("AMS"), []byte("AMT"))
	collect(t, w, byCity, []byte("BER"), []byte("BES"))
	if err := w.Run(func(tx *core.Tx) error {
		return ScanEntries(tx, byCity, []byte("A"), []byte("C"), func(sk, pk []byte) bool { return true })
	}); err != nil {
		t.Fatal(err)
	}
	// The reader, not the function, makes a scan a snapshot scan.
	if err := w.RunSnapshot(func(stx *core.SnapTx) error {
		return Scan(stx, byCity, []byte("A"), []byte("C"), 0, func(sk, pk, val []byte) bool { return true })
	}); err != nil {
		t.Fatal(err)
	}

	var snap obs.Snapshot
	r.CollectObs(&snap)
	for mode, want := range map[string]uint64{
		"batched": 2, "batched_streamed": 0, "entries": 1, "covering": 0, "snapshot": 1,
	} {
		if got := snap.Value("silo_index_scans_total", mode); got != want {
			t.Errorf("scans{mode=%s} = %d, want %d", mode, got, want)
		}
	}
	if snap.Get("silo_index_scans_total", "per_entry") != nil {
		t.Error("retired mode per_entry is still exported")
	}
	if got := snap.Value("silo_index_lookups_total", ""); got != 0 {
		t.Errorf("lookups = %d, want 0", got)
	}
}
