package silo_test

import (
	"strings"
	"testing"
	"time"

	"silo"
)

// TestRecoverRejectsChangedIncludeList pins the covering half of the
// declare-before-recover contract: logged covering entries embed the
// include list they were written under, so recovering them into an index
// re-declared with a different include list must fail with an error
// naming the index — both when the projection width changes and when only
// the offsets do (same width, different bytes). The correct
// re-declaration must keep recovering cleanly before and after each
// rejected attempt.
func TestRecoverRejectsChangedIncludeList(t *testing.T) {
	dir := t.TempDir()
	open := func(include []silo.IndexSeg) *silo.DB {
		t.Helper()
		db, err := silo.Open(silo.Options{
			Workers:       1,
			EpochInterval: time.Millisecond,
			Durability:    &silo.DurabilityOptions{Dir: dir, Loggers: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		users := db.CreateTable("users")
		if _, err := db.CreateIndexSpec(0, users, "users_city", false, citySpec(), include...); err != nil {
			db.Close()
			t.Fatalf("declare covering index: %v", err)
		}
		return db
	}

	db := open(cityInclude())
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

	// The matching declaration recovers, and the per-entry covering audit
	// inside Recover passes.
	db2 := open(cityInclude())
	if _, err := db2.Recover(); err != nil {
		t.Fatalf("recover with matching include list: %v", err)
	}
	db2.Close()

	for _, tc := range []struct {
		name    string
		include []silo.IndexSeg
	}{
		{"different width", []silo.IndexSeg{{FromValue: true, Off: 0, Len: 2}}},
		{"same width, different offset", []silo.IndexSeg{{FromValue: true, Off: 4, Len: 4}}},
		{"include list dropped (re-declared non-covering)", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db3 := open(tc.include)
			defer db3.Close()
			_, err := db3.Recover()
			if err == nil {
				t.Fatal("recovery accepted a covering index re-declared with a different include list")
			}
			if !strings.Contains(err.Error(), "users_city") {
				t.Fatalf("rejection does not name the index: %v", err)
			}
		})
	}

	// The original declaration still recovers after the failed attempts
	// (rejection is read-only).
	db4 := open(cityInclude())
	defer db4.Close()
	if _, err := db4.Recover(); err != nil {
		t.Fatalf("recover after rejected attempts: %v", err)
	}
	n := 0
	if err := db4.Run(0, func(tx *silo.Tx) error {
		n = 0
		return silo.ScanIndexCovering(tx, db4.Index("users_city"), []byte{0}, nil, 0, func(_, pk, fields []byte) bool {
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

// TestRecoverRejectsAddedIncludeList is the reverse direction: a log
// written under a non-covering declaration, recovered into an index
// re-declared as covering, must also fail naming the index (the raw
// primary-key values cannot satisfy the covering shape).
func TestRecoverRejectsAddedIncludeList(t *testing.T) {
	dir := t.TempDir()
	open := func(include []silo.IndexSeg) *silo.DB {
		t.Helper()
		db, err := silo.Open(silo.Options{
			Workers:       1,
			EpochInterval: time.Millisecond,
			Durability:    &silo.DurabilityOptions{Dir: dir, Loggers: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		users := db.CreateTable("users")
		if _, err := db.CreateIndexSpec(0, users, "users_city", false, citySpec(), include...); err != nil {
			db.Close()
			t.Fatalf("declare index: %v", err)
		}
		return db
	}
	db := open(nil) // non-covering
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

	db2 := open(cityInclude())
	defer db2.Close()
	_, err := db2.Recover()
	if err == nil {
		t.Fatal("recovery accepted covering re-declaration over a non-covering log")
	}
	if !strings.Contains(err.Error(), "users_city") {
		t.Fatalf("rejection does not name the index: %v", err)
	}
}
