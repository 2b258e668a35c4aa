package silo_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"silo"
	"silo/internal/sim"
)

// schemaDump is a comparable rendering of a DB's full schema: tables in id
// order and index declarations with every catalog-persisted attribute.
func schemaDump(db *silo.DB) []string {
	var out []string
	for _, t := range db.Tables() {
		out = append(out, fmt.Sprintf("table %d %s", t.ID, t.Name))
	}
	for _, ix := range db.Indexes() {
		out = append(out, fmt.Sprintf("index %s on=%s entry=%d unique=%v spec=%+v include=%+v",
			ix.Name, ix.On.Name, ix.Entries.ID, ix.Unique, ix.Spec, ix.Include))
	}
	return out
}

// dataDump renders every row of every table (the catalog included), so two
// recoveries can be compared bit for bit.
func dataDump(t *testing.T, db *silo.DB) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, tbl := range db.Tables() {
		if err := db.Run(0, func(tx *silo.Tx) error {
			return tx.Scan(tbl, []byte{0}, nil, func(k, v []byte) bool {
				out[fmt.Sprintf("%s/%x", tbl.Name, k)] = fmt.Sprintf("%x", v)
				return true
			})
		}); err != nil {
			t.Fatalf("dump %s: %v", tbl.Name, err)
		}
	}
	return out
}

// TestSelfDescribingRecoverySchemaEquivalence is the tentpole acceptance
// test: a database with a multi-table, multi-index schema — unique,
// non-unique, covering, and transform-bearing declarative specs, plus a
// dropped index — is recovered into fresh processes with ZERO
// declarations, both sequentially (RecoveryWorkers=1) and in parallel,
// and both must reconstruct the schema and the data byte-identically to
// each other and to the original. A checkpoint sits in the middle so the
// manifest schema section and the log's DDL suffix are both exercised.
func TestSelfDescribingRecoverySchemaEquivalence(t *testing.T) {
	dir := t.TempDir()
	db, err := silo.Open(silo.Options{
		Workers:       2,
		EpochInterval: time.Millisecond,
		SnapshotK:     2,
		Durability:    &silo.DurabilityOptions{Dir: dir, Loggers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	users := db.CreateTable("users")
	orders := db.CreateTable("orders")
	if _, err := db.CreateIndexSpec(0, users, "users_city", false, citySpec(), cityInclude()...); err != nil {
		t.Fatal(err)
	}
	// Transform spec: owner little-endian in the row, order id inverted —
	// the order_cust pattern.
	orderSpec := []silo.IndexSeg{
		{FromValue: true, Off: 0, Len: 4, Xform: silo.IndexXformReverse},
		{Off: 0, Len: 4, Xform: silo.IndexXformInvert},
	}
	if _, err := db.CreateIndexSpec(0, orders, "orders_by_owner", true, orderSpec); err != nil {
		t.Fatal(err)
	}

	okey := func(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i)) }
	oval := func(owner int) []byte {
		v := make([]byte, 8)
		binary.LittleEndian.PutUint32(v, uint32(owner))
		return v
	}
	if err := db.RunDurable(0, func(tx *silo.Tx) error {
		for i := 0; i < 50; i++ {
			if err := tx.Insert(users, userKey(i), userRow(i%cities, 0, i)); err != nil {
				return err
			}
			if err := tx.Insert(orders, okey(i), oval(i%7)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Checkpoint so part of the schema travels in the manifest's schema
	// section; post-checkpoint DDL travels in the log.
	waitSnapshotPast(db, 0)
	if _, err := db.Checkpoint(0); err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint DDL: a new table + index, and a drop.
	audit := db.CreateTable("audit")
	if _, err := db.CreateIndexSpec(0, audit, "audit_tag", false, []silo.IndexSeg{{FromValue: true, Off: 0, Len: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndexSpec(0, orders, "orders_tmp", false, []silo.IndexSeg{{Off: 0, Len: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndex("orders_tmp"); err != nil {
		t.Fatal(err)
	}
	if err := db.RunDurable(1, func(tx *silo.Tx) error {
		for i := 0; i < 20; i++ {
			if err := tx.Insert(audit, okey(i), []byte(fmt.Sprintf("tg-%02d", i))); err != nil {
				return err
			}
		}
		return tx.Put(users, userKey(3), userRow(5, 9, 99))
	}); err != nil {
		t.Fatal(err)
	}

	wantSchema := schemaDump(db)
	wantData := dataDump(t, db)
	db.Close()

	recover := func(workers int) (*silo.DB, silo.RecoveryResult) {
		t.Helper()
		db2, err := silo.Open(silo.Options{
			Workers:       2,
			EpochInterval: time.Millisecond,
			Durability:    &silo.DurabilityOptions{Dir: dir, RecoveryWorkers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Zero declarations: the catalog reconstructs everything.
		res, err := db2.Recover()
		if err != nil {
			db2.Close()
			t.Fatal(err)
		}
		return db2, res
	}

	seq, _ := recover(1)
	defer seq.Close()
	par, _ := recover(8)
	defer par.Close()

	for name, db2 := range map[string]*silo.DB{"sequential": seq, "parallel": par} {
		if got := schemaDump(db2); !reflect.DeepEqual(got, wantSchema) {
			t.Fatalf("%s recovery schema mismatch:\n got %v\nwant %v", name, got, wantSchema)
		}
		if got := dataDump(t, db2); !reflect.DeepEqual(got, wantData) {
			t.Fatalf("%s recovery data mismatch (%d vs %d rows)", name, len(got), len(wantData))
		}
		// The dropped index stays dropped; its entry table id remains
		// reserved but empty.
		if db2.Index("orders_tmp") != nil {
			t.Fatalf("%s recovery resurrected a dropped index", name)
		}
		// Recovered indexes keep working: transformed scans serve
		// most-recent-first order and covering scans serve fields.
		if err := db2.Run(0, func(tx *silo.Tx) error {
			last := -1
			return silo.ScanIndex(tx, db2.Index("orders_by_owner"), []byte{0}, nil, func(sk, pk, v []byte) bool {
				owner := int(binary.BigEndian.Uint32(sk[:4]))
				if owner < last {
					t.Errorf("%s: owner order violated: %d after %d", name, owner, last)
				}
				last = owner
				return true
			})
		}); err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := db2.Run(0, func(tx *silo.Tx) error {
			n = 0
			return silo.ScanIndexCovering(tx, db2.Index("users_city"), []byte{0}, nil, 0, func(_, _, fields []byte) bool {
				if len(fields) != 4 {
					t.Errorf("%s: covering fields %d bytes, want 4", name, len(fields))
				}
				n++
				return true
			})
		}); err != nil {
			t.Fatal(err)
		}
		if n != 50 {
			t.Fatalf("%s: covering scan served %d entries, want 50", name, n)
		}
	}

	// Declaring a recovered index again is idempotent when the
	// declaration matches the catalog's and an error naming the index when
	// it does not.
	if ix, err := par.CreateIndexSpec(0, par.Table("orders"), "orders_by_owner", true, orderSpec); err != nil || ix != par.Index("orders_by_owner") {
		t.Fatalf("identical re-declaration: %v", err)
	}
	if _, err := par.CreateIndexSpec(0, par.Table("orders"), "orders_by_owner", true, []silo.IndexSeg{
		{FromValue: true, Off: 0, Len: 4}, // transforms dropped: different spec
		{Off: 0, Len: 4},
	}); err == nil {
		t.Fatal("a re-declaration with different transforms was accepted")
	} else if !strings.Contains(err.Error(), "orders_by_owner") {
		t.Fatalf("rejection does not name the index: %v", err)
	}
}

// TestCrashMidDDLRecovery crashes a database between the catalog's
// index-create record becoming durable and the backfill completing, with
// the checkpoint daemon churning checkpoints and truncating segments
// throughout. The database runs on a simulated filesystem, and each crash
// image is what a power loss at that instant could leave: the disk at one
// instant, unsynced tails torn and unsynced directory entries lost.
// Recovering each image must yield one of exactly two states: the index
// absent (the create record was not durable yet), or the index present and
// complete — recovery rolled the backfill forward, and every row has
// exactly one consistent entry. The image taken after the completed create
// was made durable must hold the index.
func TestCrashMidDDLRecovery(t *testing.T) {
	const rows = 8192
	const dir = "mem/silo"
	fs := sim.NewFS()
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	db, err := silo.Open(silo.Options{
		Workers:       2,
		EpochInterval: time.Millisecond,
		SnapshotK:     2,
		Durability: &silo.DurabilityOptions{
			Dir:                  dir,
			FS:                   fs,
			Sync:                 true, // acks must survive a power loss
			Loggers:              2,
			SegmentBytes:         32 << 10,
			CheckpointInterval:   5 * time.Millisecond,
			CheckpointPartitions: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("rows")
	key := func(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i)) }
	for lo := 0; lo < rows; lo += 256 {
		if err := db.Run(0, func(tx *silo.Tx) error {
			for i := lo; i < lo+256; i++ {
				v := make([]byte, 8)
				binary.LittleEndian.PutUint32(v, uint32(i%97))
				if err := tx.Insert(tbl, key(i), v); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RunDurable(0, func(tx *silo.Tx) error {
		_, err := tx.Get(tbl, key(0))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Start the DDL on worker 1 and crash the disk while the backfill
	// runs: as soon as the entry table appears, then twice more shortly
	// after, then once at completion.
	ddlDone := make(chan error, 1)
	go func() {
		_, err := db.CreateIndexSpec(1, tbl, "rows_ix", false,
			[]silo.IndexSeg{{FromValue: true, Off: 0, Len: 4, Xform: silo.IndexXformReverse}})
		ddlDone <- err
	}()

	type image struct {
		label string
		fs    *sim.FS
	}
	var snaps []image
	snap := func(label string) { snaps = append(snaps, image{label, fs.Crash(rng)}) }
	deadline := time.Now().Add(20 * time.Second)
	for db.Table("rows_ix") == nil {
		if time.Now().After(deadline) {
			t.Fatal("entry table never appeared")
		}
		time.Sleep(100 * time.Microsecond)
	}
	snap("early")
	time.Sleep(2 * time.Millisecond)
	snap("mid")
	time.Sleep(5 * time.Millisecond)
	snap("late")
	if err := <-ddlDone; err != nil {
		t.Fatalf("create index: %v", err)
	}
	if err := db.RunDurable(0, func(tx *silo.Tx) error {
		_, err := tx.Get(tbl, key(0))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	snap("complete")
	db.Close()

	for _, img := range snaps {
		label := img.label
		db2, err := silo.Open(silo.Options{
			Workers:       2,
			EpochInterval: time.Millisecond,
			Durability:    &silo.DurabilityOptions{Dir: dir, FS: img.fs, RecoveryWorkers: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := db2.Recover()
		if err != nil {
			t.Fatalf("%s: recover (crash seed %d): %v", label, seed, err)
		}
		ix := db2.Index("rows_ix")
		if ix == nil {
			if label == "complete" {
				t.Fatalf("complete: index absent after recovery (crash seed %d)", seed)
			}
			// The create record was not durable at the snapshot. The data
			// table must still be fully intact.
			if db2.Table("rows") == nil {
				t.Fatalf("%s: rows table lost (crash seed %d)\n%s", label, seed, img.fs.Dump())
			}
			n := 0
			if err := db2.Run(0, func(tx *silo.Tx) error {
				n = 0
				return tx.Scan(db2.Table("rows"), []byte{0}, nil, func(_, _ []byte) bool { n++; return true })
			}); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: index absent after recovery (create record beyond D); %d rows intact", label, n)
			if n != rows {
				t.Fatalf("%s: %d of %d rows recovered (crash seed %d)\n%s", label, n, rows, seed, img.fs.Dump())
			}
			db2.Close()
			continue
		}
		if len(res.IndexesRolledForward) > 0 {
			t.Logf("%s: rolled forward %v", label, res.IndexesRolledForward)
		}
		// The index must exactly cover the table: entries == rows, every
		// entry's key re-derivable from its row.
		var nrows, nentries int
		if err := db2.Run(0, func(tx *silo.Tx) error {
			nrows, nentries = 0, 0
			if err := tx.Scan(db2.Table("rows"), []byte{0}, nil, func(_, _ []byte) bool { nrows++; return true }); err != nil {
				return err
			}
			return silo.ScanIndex(tx, ix, []byte{0}, nil, func(sk, pk, v []byte) bool {
				want := binary.LittleEndian.Uint32(v[:4])
				if got := binary.BigEndian.Uint32(sk[:4]); got != want {
					t.Errorf("%s: entry %x disagrees with row value %d", label, sk, want)
				}
				nentries++
				return true
			})
		}); err != nil {
			t.Fatal(err)
		}
		if nrows != rows || nentries != rows {
			t.Fatalf("%s: %d rows and %d entries after recovery, want %d (crash seed %d)", label, nrows, nentries, rows, seed)
		}
		t.Logf("%s: index complete after recovery (%d rows)", label, nrows)
		db2.Close()
	}
}
