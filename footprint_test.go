package silo_test

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"silo"
)

// TestRowFootprint prices a stored row in live heap: 100 000 rows of 8-byte
// keys and 100-byte values inserted through DB.Run, measured after a forced
// collection. A row is its 24-byte record, its value in a 104-byte arena
// buffer (4-byte header included) and its share of the tree nodes holding
// its key (448 bytes for 16 keys in packed leaves, whose keys of ≤ 16
// bytes need no suffix block): 153 bytes and 1.08 heap objects in
// ascending order, where leaves fill, and 166 bytes in shuffled order,
// where they fill to about 0.7. With sixteen suffix pointers in every
// 576-byte node and values in 112-byte buffers the same rows took 173 and
// 189 bytes (8 bytes more each while the record's trailing zero-size field
// padded it to 32); before keys and values were stored at their own size,
// 275 and 311 bytes and 2.08 and 2.11 objects each.
func TestRowFootprint(t *testing.T) {
	const rows = 100_000
	for _, c := range []struct {
		name             string
		shuffle          bool
		maxBytes, maxObj float64
	}{
		{"ascending", false, 160, 1.15},
		{"shuffled", true, 175, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			ids := make([]uint64, rows)
			for i := range ids {
				ids[i] = uint64(i)
			}
			if c.shuffle {
				rand.New(rand.NewSource(1)).Shuffle(rows, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			}
			db := openTestDB(t, silo.Options{Workers: 1})
			tbl := db.CreateTable("t")
			val := make([]byte, 100)
			var key [8]byte
			before := liveHeap()
			for lo := 0; lo < rows; lo += 500 {
				if err := db.Run(0, func(tx *silo.Tx) error {
					for _, id := range ids[lo : lo+500] {
						binary.BigEndian.PutUint64(key[:], id)
						if err := tx.Insert(tbl, key[:], val); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			after := liveHeap()
			bytesPerRow := float64(after.HeapAlloc-before.HeapAlloc) / rows
			objPerRow := float64(after.HeapObjects-before.HeapObjects) / rows
			t.Logf("%.1f B/row, %.3f live objects/row", bytesPerRow, objPerRow)
			if bytesPerRow > c.maxBytes {
				t.Errorf("%.1f live heap bytes per row, want at most %.0f", bytesPerRow, c.maxBytes)
			}
			if c.maxObj > 0 && objPerRow > c.maxObj {
				t.Errorf("%.3f live heap objects per row, want at most %.2f", objPerRow, c.maxObj)
			}
			runtime.KeepAlive(db)
		})
	}
}

func liveHeap() runtime.MemStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
