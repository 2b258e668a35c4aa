package silo_test

import (
	"testing"

	"silo"
)

// interposer is a write hook registered on a table before its index, so it
// runs between Put's read of a row and the index hook's removal of the
// row's old entry. Armed with fire, it runs it once there.
type interposer struct{ fire func() }

func (h *interposer) OnInsert(tx *silo.Tx, pk, val []byte) error    { return nil }
func (h *interposer) OnDelete(tx *silo.Tx, pk, oldVal []byte) error { return nil }

func (h *interposer) OnUpdate(tx *silo.Tx, pk, oldVal, newVal []byte) error {
	if f := h.fire; f != nil {
		h.fire = nil
		f()
	}
	return nil
}

// TestDoomedIndexUpsertCommits is the hammer's indexed-table upsert made
// deterministic. Worker 0's Put reads the user's row (city 1); before its
// index maintenance runs, worker 1 moves the user to city 2 and commits;
// worker 0's hook then finds no (city 1, user) entry to remove and fails
// with "index … out of sync". That error came from reads that no longer
// validate — no serial execution produces it — so Run must retry the
// upsert to a commit rather than return it.
func TestDoomedIndexUpsertCommits(t *testing.T) {
	db, err := silo.Open(silo.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	users := db.CreateTable("users")
	h := &interposer{}
	users.AddWriteHook(h)
	byCity, err := db.CreateIndexSpec(0, users, "users_city", false, citySpec())
	if err != nil {
		t.Fatal(err)
	}
	k := userKey(1)
	if err := db.Run(0, func(tx *silo.Tx) error { return tx.Insert(users, k, userRow(1, 0, 0)) }); err != nil {
		t.Fatal(err)
	}

	h.fire = func() {
		if err := db.Run(1, func(tx *silo.Tx) error { return tx.Put(users, k, userRow(2, 1, 0)) }); err != nil {
			t.Fatalf("interleaved move: %v", err)
		}
	}
	attempts := 0
	if err := db.Run(0, func(tx *silo.Tx) error {
		attempts++
		v := userRow(3, 0, 1)
		err := tx.Insert(users, k, v)
		if err == silo.ErrKeyExists {
			return tx.Put(users, k, v)
		}
		return err
	}); err != nil {
		t.Fatalf("upsert = %v after %d attempts; want the doomed attempt retried to a commit", err, attempts)
	}
	if attempts != 2 {
		t.Errorf("upsert took %d attempts, want 2", attempts)
	}

	if err := db.Run(0, func(tx *silo.Tx) error {
		var got []string
		err := silo.ScanIndex(tx, byCity, []byte{0}, nil, func(sk, pk, _ []byte) bool {
			got = append(got, string([]byte{sk[0]})+string(pk))
			return true
		})
		if err == nil && (len(got) != 1 || got[0] != "\x03"+string(k)) {
			t.Errorf("index entries = %q, want the user in city 3 only", got)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
