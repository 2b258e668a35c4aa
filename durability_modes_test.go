package silo_test

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"testing"
	"time"

	"silo"
	"silo/internal/sim"
	"silo/internal/wal"
)

// TestDurabilityModes drives every durability mode — the paper's persistence
// baselines (§5.3 Silo+tmpfs, §5.7 +SmallRecs / +FullRecs / +Compress) —
// through the public API: each is a setting of the one logger silo.Open
// assembles. The replayable modes must come back from a reopen that is not
// told how the log was written; the one that cannot be replayed must say so.
func TestDurabilityModes(t *testing.T) {
	const n = 60
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%03d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%03d-of-a-row", i)) }

	open := func(t *testing.T, d silo.DurabilityOptions) *silo.DB {
		t.Helper()
		db, err := silo.Open(silo.Options{EpochInterval: time.Millisecond, Durability: &d})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(db.Close)
		return db
	}
	// write commits rows [lo, hi), each in its own RunDurable, and closes.
	write := func(t *testing.T, db *silo.DB, lo, hi int) {
		t.Helper()
		tbl := db.CreateTable("t")
		for i := lo; i < hi; i++ {
			if err := db.RunDurable(0, func(tx *silo.Tx) error { return tx.Insert(tbl, key(i), val(i)) }); err != nil {
				t.Fatal(err)
			}
		}
		db.Close()
	}
	// reopen opens the directory again, recovers, and checks that exactly
	// rows [0, hi) came back.
	reopen := func(t *testing.T, d silo.DurabilityOptions, hi int) *silo.DB {
		t.Helper()
		db := open(t, d)
		res, err := db.Recover()
		if err != nil {
			t.Fatal(err)
		}
		tbl := db.Table("t")
		if tbl == nil {
			t.Fatalf("table not recovered (%+v)", res)
		}
		got := map[string]string{}
		if err := db.Run(0, func(tx *silo.Tx) error {
			return tx.Scan(tbl, []byte("key"), nil, func(k, v []byte) bool {
				got[string(k)] = string(v)
				return true
			})
		}); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		for i := 0; i < hi; i++ {
			want[string(key(i))] = string(val(i))
		}
		if !maps.Equal(got, want) {
			t.Fatalf("recovered %d rows, want %d (%+v)", len(got), len(want), res)
		}
		return db
	}

	for name, d := range map[string]silo.DurabilityOptions{
		"full":     {Dir: t.TempDir()},
		"compress": {Dir: t.TempDir(), Compress: true},
		// Silo+tmpfs: the same logger and recovery on a memory filesystem.
		"in-memory FS": {Dir: "mem/silo", FS: sim.NewFS(), Sync: true},
	} {
		t.Run(name, func(t *testing.T) {
			write(t, open(t, d), 0, n)
			// The reopen names the place only.
			reopen(t, silo.DurabilityOptions{Dir: d.Dir, FS: d.FS}, n)
		})
	}

	// A directory written half with and half without Compress: the second
	// run appends plain frames to the segment the first left deflated ones
	// in, and each run recovers everything before it.
	t.Run("compress toggled between runs", func(t *testing.T) {
		dir := t.TempDir()
		write(t, open(t, silo.DurabilityOptions{Dir: dir, Compress: true}), 0, n/2)
		write(t, reopen(t, silo.DurabilityOptions{Dir: dir}, n/2), n/2, n)
		reopen(t, silo.DurabilityOptions{Dir: dir, Compress: true}, n)

		infos, err := wal.ListLogFiles(nil, dir)
		if err != nil || len(infos) != 1 {
			t.Fatalf("log segments %v (err %v), want the one all three runs appended to", infos, err)
		}
		data, err := os.ReadFile(infos[0].Path)
		if err != nil {
			t.Fatal(err)
		}
		if first, last := bytes.Contains(data, val(0)), bytes.Contains(data, val(n-1)); first || !last {
			t.Fatalf("row 0 in the clear: %v, row %d in the clear: %v; want the first run's rows deflated and the second's plain", first, n-1, last)
		}
	})

	// +SmallRecs logs that a transaction happened, not what it wrote.
	t.Run("TIDOnly", func(t *testing.T) {
		d := silo.DurabilityOptions{Dir: t.TempDir(), TIDOnly: true}
		db := open(t, d)
		write(t, db, 0, n)

		// Every logged record is a TID and a write count of zero, 12 bytes;
		// the rest of what the loggers wrote is frame headers (9 bytes per
		// buffer) and durable frames (13 bytes each).
		snap := db.Observe()
		logged, total := snap.Value("silo_wal_txns_logged_total", ""), snap.Value("silo_wal_bytes_written_total", "")
		if framing := total - 12*logged - 9*snap.Value("silo_wal_buffers_written_total", ""); logged < n || framing%13 != 0 {
			t.Fatalf("%d transactions logged in %d bytes: not 12 bytes per transaction", logged, total)
		}
		infos, _ := wal.ListLogFiles(nil, d.Dir)
		var c txnCounter
		for _, fi := range infos {
			data, err := os.ReadFile(fi.Path)
			if err != nil {
				t.Fatal(err)
			}
			if err := wal.ScanSegment(data, 1).Walk(&c); err != nil {
				t.Fatal(err)
			}
		}
		if c.writes != 0 {
			t.Fatalf("TID-only log holds %d writes", c.writes)
		}
		if c.txns != logged {
			t.Fatalf("log holds %d records, loggers counted %d", c.txns, logged)
		}

		// A TID-only run over a directory that holds logged transactions
		// would append to a log nothing can replay.
		if db, err := silo.Open(silo.Options{Durability: &d}); err == nil {
			db.Close()
			t.Fatal("Open with TIDOnly over a logged directory reported success")
		}
		// A daemon checkpointing and truncating a log that cannot be replayed
		// would delete the only record that anything happened.
		d.CheckpointInterval = time.Second
		if db, err := silo.Open(silo.Options{Durability: &d}); err == nil {
			db.Close()
			t.Fatal("Open accepted TIDOnly with CheckpointInterval")
		}
	})
}

// txnCounter counts the transactions a segment's walk shows it and the
// writes they declare.
type txnCounter struct{ txns, writes uint64 }

func (c *txnCounter) Frame([]byte, bool) {}
func (c *txnCounter) FrameEnd(bool)      {}
func (c *txnCounter) Txn(_ uint64, writes int) bool {
	c.txns++
	c.writes += uint64(writes)
	return false
}
func (c *txnCounter) Entry(uint32, []byte, []byte, bool) {}
