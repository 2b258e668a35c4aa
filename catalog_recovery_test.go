package silo_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"silo"
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
	waitSnapshotPast(t, db, 0)
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

// copyDurabilityDir snapshots a live durability directory the way a crash
// would leave it: log segments first (torn tails are fine), then
// checkpoint sets with their parts before the MANIFEST (the manifest is
// the commit point on the real disk too). Files deleted mid-copy by the
// daemon's truncation are skipped — the checkpoint covering them is
// always on disk before they go and is copied afterwards.
func copyDurabilityDir(t *testing.T, src, dst string) {
	t.Helper()
	cp := func(from, to string) {
		in, err := os.Open(from)
		if err != nil {
			return // vanished under the daemon: covered by a checkpoint
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts []string
	for _, e := range entries {
		if e.IsDir() {
			ckpts = append(ckpts, e.Name())
			continue
		}
		cp(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
	}
	sort.Strings(ckpts)
	for _, name := range ckpts {
		sub := filepath.Join(dst, name)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		parts, err := os.ReadDir(filepath.Join(src, name))
		if err != nil {
			continue // pruned under us
		}
		for _, p := range parts {
			if p.Name() == "MANIFEST" {
				continue
			}
			cp(filepath.Join(src, name, p.Name()), filepath.Join(sub, p.Name()))
		}
		cp(filepath.Join(src, name, "MANIFEST"), filepath.Join(sub, "MANIFEST"))
	}
}

// TestCrashMidDDLRecovery kills a database (by snapshotting its durability
// directory) between the catalog's index-create record becoming durable
// and the backfill completing, with the checkpoint daemon churning
// checkpoints and truncating segments throughout. Recovering each
// snapshot must yield one of exactly two
// states: the index absent (the create record was not durable yet), or
// the index present and complete — recovery rolled the backfill forward,
// and every row has exactly one consistent entry.
func TestCrashMidDDLRecovery(t *testing.T) {
	const rows = 8192
	dir := t.TempDir()
	db, err := silo.Open(silo.Options{
		Workers:       2,
		EpochInterval: time.Millisecond,
		SnapshotK:     2,
		Durability: &silo.DurabilityOptions{
			Dir:                  dir,
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

	// Start the DDL on worker 1 and snapshot the directory while the
	// backfill runs: as soon as the entry table appears, then twice more
	// shortly after, then once at completion.
	ddlDone := make(chan error, 1)
	go func() {
		_, err := db.CreateIndexSpec(1, tbl, "rows_ix", false,
			[]silo.IndexSeg{{FromValue: true, Off: 0, Len: 4, Xform: silo.IndexXformReverse}})
		ddlDone <- err
	}()

	var snaps []string
	snap := func(label string) {
		d := filepath.Join(t.TempDir(), label)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		copyDurabilityDir(t, dir, d)
		snaps = append(snaps, d)
	}
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

	for _, d := range snaps {
		label := filepath.Base(d)
		db2, err := silo.Open(silo.Options{
			Workers:       2,
			EpochInterval: time.Millisecond,
			Durability:    &silo.DurabilityOptions{Dir: d, RecoveryWorkers: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := db2.Recover()
		if err != nil {
			t.Fatalf("%s: recover: %v", label, err)
		}
		ix := db2.Index("rows_ix")
		if ix == nil {
			// The create record was not durable at the snapshot. The data
			// table must still be fully intact.
			n := 0
			if err := db2.Run(0, func(tx *silo.Tx) error {
				n = 0
				return tx.Scan(db2.Table("rows"), []byte{0}, nil, func(_, _ []byte) bool { n++; return true })
			}); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: index absent after recovery (create record beyond D); %d rows intact", label, n)
			if n == 0 {
				t.Fatalf("%s: rows table empty", label)
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
		if nrows != nentries {
			t.Fatalf("%s: %d rows but %d entries after recovery", label, nrows, nentries)
		}
		t.Logf("%s: index complete after recovery (%d rows)", label, nrows)
		db2.Close()
	}

	// At least the final snapshot must recover the completed index.
	if !bytes.Contains([]byte(strings.Join(snaps, " ")), []byte("complete")) {
		t.Fatal("missing completion snapshot")
	}
}
