package silo_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"silo"
)

// openCityDir opens a durability directory holding the users table and its
// users_city index, creating both on first use (declared with include);
// on later opens the catalog has already rebuilt them.
func openCityDir(t *testing.T, dir string, include []silo.IndexSeg) *silo.DB {
	t.Helper()
	db, err := silo.Open(silo.Options{
		Workers:       1,
		EpochInterval: time.Millisecond,
		Durability:    &silo.DurabilityOptions{Dir: dir, Loggers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Index("users_city") == nil {
		users := db.CreateTable("users")
		if _, err := db.CreateIndexSpec(0, users, "users_city", false, citySpec(), include...); err != nil {
			db.Close()
			t.Fatalf("declare index: %v", err)
		}
	}
	return db
}

// TestRecoverRejectsChangedIncludeList pins the covering half of the one
// schema contract: logged covering entries embed the include list they
// were written under, and the catalog rebuilds the index with exactly that
// list. Declaring it again after Open with the same list returns the
// recovered index; with a different one — another width, the same width at
// other offsets, or none — it fails naming the index and leaves the
// recovered index serving what it served.
func TestRecoverRejectsChangedIncludeList(t *testing.T) {
	dir := t.TempDir()
	db := openCityDir(t, dir, cityInclude())
	users := db.Table("users")
	if err := db.RunDurable(0, func(tx *silo.Tx) error {
		for i := 0; i < 20; i++ {
			if err := tx.Insert(users, userKey(i), userRow(i%cities, 0, i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openCityDir(t, dir, nil)
	defer db2.Close()
	ix := db2.Index("users_city")
	if again, err := db2.CreateIndexSpec(0, db2.Table("users"), "users_city", false, citySpec(), cityInclude()...); err != nil || again != ix {
		t.Fatalf("re-declaration with the recovered include list: %v", err)
	}

	for _, tc := range []struct {
		name    string
		include []silo.IndexSeg
	}{
		{"different width", []silo.IndexSeg{{FromValue: true, Off: 0, Len: 2}}},
		{"same width, different offset", []silo.IndexSeg{{FromValue: true, Off: 4, Len: 4}}},
		{"include list dropped (re-declared non-covering)", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := db2.CreateIndexSpec(0, db2.Table("users"), "users_city", false, citySpec(), tc.include...)
			if err == nil {
				t.Fatal("a covering index re-declared with a different include list was accepted")
			}
			if !strings.Contains(err.Error(), "users_city") {
				t.Fatalf("rejection does not name the index: %v", err)
			}
		})
	}

	// The rejected declarations changed nothing.
	n := 0
	if err := db2.Run(0, func(tx *silo.Tx) error {
		n = 0
		return silo.ScanIndexCovering(tx, db2.Index("users_city"), []byte{0}, nil, 0, func(_, pk, fields []byte) bool {
			n++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("recovered covering index serves %d entries, want 20", n)
	}
}

// TestRecoverRejectsAddedIncludeList is the reverse direction: an index
// logged without an include list comes back non-covering, and declaring it
// covering after Open fails naming the index.
func TestRecoverRejectsAddedIncludeList(t *testing.T) {
	dir := t.TempDir()
	db := openCityDir(t, dir, nil)
	if err := db.RunDurable(0, func(tx *silo.Tx) error {
		for i := 0; i < 10; i++ {
			if err := tx.Insert(db.Table("users"), userKey(i), userRow(i%cities, 0, i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openCityDir(t, dir, cityInclude())
	defer db2.Close()
	_, err := db2.CreateIndexSpec(0, db2.Table("users"), "users_city", false, citySpec(), cityInclude()...)
	if err == nil {
		t.Fatal("covering re-declaration of a non-covering index was accepted")
	}
	if !strings.Contains(err.Error(), "users_city") {
		t.Fatalf("rejection does not name the index: %v", err)
	}
	if err := db2.Run(0, func(tx *silo.Tx) error {
		return silo.ScanIndexCovering(tx, db2.Index("users_city"), []byte{0}, nil, 0, func(_, _, _ []byte) bool { return true })
	}); !errors.Is(err, silo.ErrNotCovering) {
		t.Fatalf("recovered index serves covering scans: %v", err)
	}
}
