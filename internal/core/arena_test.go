package core

import (
	"bytes"
	"testing"

	"silo/internal/record"
)

// TestArenaRecyclesWithinClass: three keys rewritten with every value
// length from 1 to 300 bytes and back down — and deleted, and inserted
// again, every fifty lengths — hand each replaced buffer back to the arena
// and take a recycled one for the next value. Every value must read back
// whole, and every buffer on the arena's lists must be of the list's class:
// a buffer filed one class up would be handed out for values it cannot
// hold.
func TestArenaRecyclesWithinClass(t *testing.T) {
	s := testStore(t, 1)
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	value := func(round, j, n int) []byte { return bytes.Repeat([]byte{byte(round + j)}, n+j) }
	var lens []int
	for n := 1; n <= 300; n++ {
		lens = append(lens, n)
	}
	for n := 300; n >= 1; n-- {
		lens = append(lens, n)
	}
	for round, n := range lens {
		if err := w.Run(func(tx *Tx) error {
			for j, k := range keys {
				var err error
				if round%50 == 0 {
					if round > 0 {
						if err = tx.Delete(tbl, k); err != nil {
							return err
						}
					}
					err = tx.Insert(tbl, k, value(round, j, n))
				} else {
					err = tx.Put(tbl, k, value(round, j, n))
				}
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := w.Run(func(tx *Tx) error {
			for j, k := range keys {
				if v, err := tx.Get(tbl, k); err != nil || !bytes.Equal(v, value(round, j, n)) {
					t.Fatalf("round %d: %q reads %d bytes (%v), want %d", round, k, len(v), err, n+j)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	recycled := 0
	for c, l := range w.arena.classes {
		for _, buf := range l {
			if len(buf) != record.BufSize(c) || record.ClassOf(buf) != c {
				t.Fatalf("class %d list holds a %d-byte buffer of class %d", c, len(buf), record.ClassOf(buf))
			}
			recycled++
		}
	}
	if recycled == 0 {
		t.Fatal("no buffer came back to the arena")
	}
}
