package recovery

import (
	"encoding/binary"
	"runtime"
	"testing"

	"silo/internal/core"
	"silo/internal/race"
	"silo/internal/wal"
)

// TestRecoveredRowFootprint prices what recovery's slabs keep alive. A span's
// rows are born together — their records one slice, their values' buffers
// carved from shared chunks — and Go frees neither while any row of it
// lives: a deleted row's record stays, and so does its value's piece unless
// the worker arena reuses it. 100 000 rows of 8-byte keys and 100-byte
// values are recovered from a log; every other key is then deleted and every
// fourth survivor overwritten with a 200-byte value (another class, so its
// piece goes to the arena); the deleted rows are unhooked and the old
// versions reaped; then a collection. Live heap per surviving row measures
// 620 B, bounded at 680: the half that survives pays for the half that
// does not. With each row allocated on its own the same steps left 474 B.
// A row recovered and left alone costs 173 B, 181 B when allocated on its
// own.
func TestRecoveredRowFootprint(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const rows = 100_000
	dir := t.TempDir()
	{
		seg := appendBufferFrame(nil, []logTxn{createTxn(tidAt(1, rows+1), "t")}, 'B')
		var frame []logTxn
		for i := 0; i < rows; i++ {
			frame = append(frame, logTxn{tid: tidAt(1, uint64(i+1)),
				entries: []wal.Entry{put(1, binary.BigEndian.AppendUint64(nil, uint64(i)), make([]byte, 100))}})
			if len(frame) == 100 {
				seg, frame = appendBufferFrame(seg, frame, 'B'), frame[:0]
			}
		}
		writeSegment(t, dir, 0, 0, appendDurableFrame(seg, 1))
	}

	s, cat := catalogStore(t, manualOpts())
	w := s.Worker(0)
	before := liveHeap()
	if _, err := Recover(s, dir, Options{Workers: 2, Schema: cat}); err != nil {
		t.Fatal(err)
	}
	tbl := s.Table("t")
	s.Epochs().AdvanceTo(2) // above D, as Open restarts them
	val := make([]byte, 200)
	for lo := 0; lo < rows; lo += 1000 {
		if err := w.Run(func(tx *core.Tx) error {
			for i := lo; i < lo+1000; i++ {
				key := binary.BigEndian.AppendUint64(nil, uint64(i))
				var err error
				switch {
				case i%2 == 0:
					err = tx.Delete(tbl, key)
				case i%8 == 1:
					err = tx.Put(tbl, key, val)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Past the reclamation horizon, the next transaction's epilogue reaps.
	for i := 0; i < 20; i++ {
		s.AdvanceEpoch()
	}
	if err := w.Run(func(*core.Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Tree.Len(); n != rows/2 {
		t.Fatalf("%d keys in the tree after reclamation, want %d", n, rows/2)
	}
	after := liveHeap()
	perRow := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (rows / 2)
	t.Logf("%.1f live heap bytes per surviving row", perRow)
	if perRow > 680 {
		t.Errorf("%.1f live heap bytes per surviving row, want at most 680", perRow)
	}
	runtime.KeepAlive(s)
}

func liveHeap() runtime.MemStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
