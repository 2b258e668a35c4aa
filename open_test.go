package silo_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"silo"
	"silo/internal/catalog"
	"silo/internal/tid"
)

// TestOpenRecoversBeforeFirstCommit is the lost-acknowledgement regression.
// A process that opened a directory and committed before recovering it
// used a fresh epoch counter: its acknowledged writes carried TIDs below
// the old log's, so the next recovery kept the old value, and a table it
// created took an id the old log already used. Open now recovers first, so
// run 2 below can neither skip recovery nor lose to run 1.
func TestOpenRecoversBeforeFirstCommit(t *testing.T) {
	dir := t.TempDir()
	open := func() *silo.DB {
		t.Helper()
		db, err := silo.Open(silo.Options{
			EpochInterval: time.Millisecond,
			Durability:    &silo.DurabilityOptions{Dir: dir},
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	durable := func(db *silo.DB, fn func(tx *silo.Tx) error) {
		t.Helper()
		if err := db.RunDurable(0, fn); err != nil {
			t.Fatal(err)
		}
	}

	db := open()
	tbl := db.CreateTable("t")
	durable(db, func(tx *silo.Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v1")) })
	db.Close()

	// Run 2 makes no Recover call: it creates a table, upserts k and
	// inserts a row into the new table, each acknowledged durable.
	db = open()
	tbl, t2 := db.CreateTable("t"), db.CreateTable("t2")
	durable(db, func(tx *silo.Tx) error {
		if err := tx.Insert(tbl, []byte("k"), []byte("v2")); err != silo.ErrKeyExists {
			return err
		}
		return tx.Put(tbl, []byte("k"), []byte("v2"))
	})
	durable(db, func(tx *silo.Tx) error { return tx.Insert(t2, []byte("r"), []byte("row")) })
	db.Close()

	db = open()
	defer db.Close()
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	tbl, t2 = db.Table("t"), db.Table("t2")
	if tbl == nil || t2 == nil {
		t.Fatalf("tables after the third open: t=%v t2=%v", tbl, t2)
	}
	if err := db.Run(0, func(tx *silo.Tx) error {
		if v, err := tx.Get(tbl, []byte("k")); err != nil || string(v) != "v2" {
			t.Errorf("k = %q (%v), want the acknowledged v2", v, err)
		}
		if v, err := tx.Get(t2, []byte("r")); err != nil || string(v) != "row" {
			t.Errorf("t2 row = %q (%v), want the acknowledged insert", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedOpenLeavesDirectoryUntouched: a directory Open cannot recover —
// here one whose catalog holds an index an earlier release declared with a
// Go key function, and one whose catalog holds a row that does not decode
// — fails Open with an error naming the index or the row, leaves no
// goroutine behind, and leaves every file in the directory byte for byte
// as it was, with none added.
func TestFailedOpenLeavesDirectoryUntouched(t *testing.T) {
	// An opaque create record, as earlier releases wrote it: the usual
	// layout with flag bit 1 set and no key spec.
	opaque := (&catalog.Record{Kind: catalog.KindCreateIndex, Name: "users_by_fn", ID: 2, On: "users"}).Encode(nil)
	opaque[len(opaque)-3] |= 2 // flags, then two empty segment lists

	for _, c := range []struct {
		name string
		row  []byte // catalog row 2, after users' create record
		want string
	}{
		{"opaque index record", opaque, "users_by_fn"},
		{"corrupt catalog row", []byte{1, catalog.KindCreateTable, 0}, "record 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := silo.Options{EpochInterval: time.Millisecond, Durability: &silo.DurabilityOptions{Dir: dir, Loggers: 2}}
			db, err := silo.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			db.CreateTable("users")
			cat := db.Table(silo.CatalogTableName)
			if err := db.RunDurable(0, func(tx *silo.Tx) error {
				return tx.Insert(cat, binary.BigEndian.AppendUint64(nil, 2), c.row)
			}); err != nil {
				t.Fatal(err)
			}
			db.Close()

			before := dirFiles(t, dir)
			goroutines := runtime.NumGoroutine()
			db, err = silo.Open(opts)
			if err == nil {
				db.Close()
				t.Fatal("Open recovered the directory")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %q", err, c.want)
			}
			t.Logf("Open: %v", err)
			// A joined goroutine may still be counted for an instant after
			// the join.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the failed Open, %d before", runtime.NumGoroutine(), goroutines)
				}
			}
			after := dirFiles(t, dir)
			if len(after) != len(before) {
				t.Errorf("%d files after the failed Open, %d before", len(after), len(before))
			}
			for name, data := range before {
				if !bytes.Equal(after[name], data) {
					t.Errorf("%s changed", name)
				}
			}
		})
	}
}

// dirFiles reads every file under dir, keyed by its path relative to dir.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	if err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = data
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return files
}

// TestOpenFailsOnUndecodableFrame: a log frame whose CRC matches but whose
// payload does not decode is not a torn write, and recovering around it
// would not give an epoch prefix. Open fails with an error naming the
// segment and the frame's offset in it, and leaves the directory as it
// was. The frame ends a segment of twenty durable transactions, past the
// first of the cuts that split the segment among four recovery workers, so
// the piece that decodes it does not start the file.
func TestOpenFailsOnUndecodableFrame(t *testing.T) {
	dir := t.TempDir()
	opts := silo.Options{EpochInterval: time.Millisecond, Durability: &silo.DurabilityOptions{Dir: dir, Loggers: 1, RecoveryWorkers: 4}}
	db, err := silo.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	for i := 0; i < 20; i++ {
		if err := db.RunDurable(0, func(tx *silo.Tx) error { return tx.Insert(tbl, []byte{'k', byte(i)}, []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	// One transaction that claims two entries and holds one, in a frame
	// with a matching CRC, appended to the logger's segment.
	seg := filepath.Join(dir, "log.0")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := len(data)
	p := binary.LittleEndian.AppendUint64(nil, 1)
	p = binary.LittleEndian.AppendUint32(p, 2)
	p = binary.LittleEndian.AppendUint32(p, 1)
	p = binary.LittleEndian.AppendUint16(p, 1)
	p = append(p, 'k')
	p = binary.LittleEndian.AppendUint32(p, 1)
	p = append(p, 'w')
	data = append(data, 'B')
	data = binary.LittleEndian.AppendUint32(data, uint32(len(p)))
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(p))
	if err := os.WriteFile(seg, append(data, p...), 0o644); err != nil {
		t.Fatal(err)
	}

	before := dirFiles(t, dir)
	if db, err = silo.Open(opts); err == nil {
		db.Close()
		t.Fatal("Open recovered around the undecodable frame")
	}
	if want := fmt.Sprintf("offset %d", off); !strings.Contains(err.Error(), seg) || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %s and %s", err, seg, want)
	}
	after := dirFiles(t, dir)
	if len(after) != len(before) {
		t.Errorf("%d files after the failed Open, %d before", len(after), len(before))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Errorf("%s changed", name)
		}
	}
}

// TestRecoveryGaugesMatchResult: after a durable reopen, each
// silo_recovery_* gauge that reports a field of the recovery's Result
// equals that field of db.Recover(), and the report's replay line carries
// the same D and counts. The directory is a checkpoint and two loggers'
// rotated segments of overwritten rows, plus one transaction beyond D, so
// that no count is 0.
func TestRecoveryGaugesMatchResult(t *testing.T) {
	dir := t.TempDir()
	opts := silo.Options{Workers: 2, EpochInterval: time.Millisecond, SnapshotK: 2,
		Durability: &silo.DurabilityOptions{Dir: dir, Loggers: 2, SegmentBytes: 4 << 10}}
	db, err := silo.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	for i := 0; i < 400; i++ {
		if err := db.Run(i%2, func(tx *silo.Tx) error {
			if i < 50 {
				return tx.Insert(tbl, []byte{'k', byte(i)}, []byte(fmt.Sprint(i)))
			}
			return tx.Put(tbl, []byte{'k', byte(i % 50)}, []byte(fmt.Sprint(i)))
		}); err != nil {
			t.Fatal(err)
		}
		if i == 200 {
			waitSnapshotPast(db, 0)
			if _, err := db.Checkpoint(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Close()

	// A transaction of no writes in an epoch no durable frame reaches.
	p := binary.LittleEndian.AppendUint64(nil, uint64(tid.Make(1<<20, 1)))
	p = binary.LittleEndian.AppendUint32(p, 0)
	frame := binary.LittleEndian.AppendUint32([]byte{'B'}, uint32(len(p)))
	frame = append(binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(p)), p...)
	f, err := os.OpenFile(filepath.Join(dir, "log.0"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if db, err = silo.Open(opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.DurableEpoch == 0 || res.CheckpointEpoch == 0 || res.TxnsApplied == 0 || res.TxnsSkipped != 1 ||
		res.TxnsBelowCheckpoint == 0 || res.EntriesApplied == 0 || res.EntriesSuperseded == 0 || res.LogBytes == 0 || res.LogFiles < 3 {
		t.Fatalf("recovery result %+v: want a checkpoint, every count above 0, one transaction beyond D, a rotated log", res)
	}
	snap := db.Observe()
	for _, g := range []struct {
		name string
		want uint64
	}{
		{"silo_recovery_durable_epoch", res.DurableEpoch},
		{"silo_recovery_checkpoint_epoch", res.CheckpointEpoch},
		{"silo_recovery_txns_applied", uint64(res.TxnsApplied)},
		{"silo_recovery_txns_skipped", uint64(res.TxnsSkipped)},
		{"silo_recovery_entries_applied", uint64(res.EntriesApplied)},
		{"silo_recovery_log_bytes", uint64(res.LogBytes)},
		{"silo_recovery_log_files", uint64(res.LogFiles)},
	} {
		if s := snap.Get(g.name, ""); s == nil || s.Value != g.want {
			t.Errorf("%s is %v, the result says %d", g.name, s, g.want)
		}
	}
	var report bytes.Buffer
	res.WriteReport(&report, 0)
	want := fmt.Sprintf("  replay: D=%d, %d txns applied (%d beyond D, %d below checkpoint), %d keys installed (%d entries superseded), ",
		res.DurableEpoch, res.TxnsApplied, res.TxnsSkipped, res.TxnsBelowCheckpoint, res.EntriesApplied, res.EntriesSuperseded)
	if !strings.Contains(report.String(), want) {
		t.Errorf("report:\n%s\nholds no line starting %q", report.String(), want)
	}
}
