package index

import (
	"fmt"
	"testing"

	"silo/internal/core"
)

// batched_occ_test.go pins down the batched-resolution OCC path
// deterministically: testHookAfterCollect lands a concurrent committed
// write exactly between Scan's entry collection and its batched primary
// resolution. The scanning transaction must abort — at resolution
// (row vanished) or at commit (read-/node-set validation) — and never
// commit a torn result. A same-key update, which is serializable as
// writer-before-scanner, is the positive control: it must commit and show
// the new value for every affected row.

func withCollectHook(t *testing.T, fn func()) {
	t.Helper()
	testHookAfterCollect = fn
	t.Cleanup(func() { testHookAfterCollect = nil })
}

func batchedSetup(t *testing.T) (*core.Store, *core.Table, *Index) {
	t.Helper()
	s := newStore(t, 2)
	users := s.CreateTable("users")
	byCity := mustNew(t, s, users, "users_by_city", false, cityKey)
	w := s.Worker(0)
	for i := 0; i < 8; i++ {
		insertUser(t, w, users, i, "AMS", uint64(i), name(i))
	}
	return s, users, byCity
}

// TestBatchedResolveRowDeletedInGap: the concurrent writer deletes a
// collected row; resolution finds the entry's row gone and must not
// fabricate or skip a row: the scan fails, and since the collected entry
// changed, the transaction ends as ErrConflict (retryable). Rows are
// emitted in entry order up to the first missing one: the callback has
// seen exactly the rows before it when the scan fails — the prefix a
// re-executed transaction body must discard.
func TestBatchedResolveRowDeletedInGap(t *testing.T) {
	s, users, byCity := batchedSetup(t)
	w0, w1 := s.Worker(0), s.Worker(1)

	withCollectHook(t, func() {
		if err := runTx(w1, func(tx *core.Tx) error {
			return tx.Delete(users, []byte("u003"))
		}); err != nil {
			t.Fatalf("concurrent delete: %v", err)
		}
	})

	var emitted []string
	err := w0.RunOnce(func(tx *core.Tx) error {
		return Scan(tx, byCity, []byte("AMS"), []byte("AMT"), 0, func(_, pk, _ []byte) bool {
			emitted = append(emitted, string(pk))
			return true
		})
	})
	if err != core.ErrConflict {
		t.Fatalf("batched scan over deleted row err = %v, want ErrConflict", err)
	}
	if got, want := fmt.Sprint(emitted), "[u000 u001 u002]"; got != want {
		t.Fatalf("rows emitted before the conflict: %s, want %s", got, want)
	}
}

// TestBatchedResolveRowMovedInGap: the concurrent writer moves a row's
// secondary key (entry delete + insert). Execution may or may not observe
// the torn pairing, but the commit must abort: the collected entry joined
// the read-set and its record changed.
func TestBatchedResolveRowMovedInGap(t *testing.T) {
	s, users, byCity := batchedSetup(t)
	w0, w1 := s.Worker(0), s.Worker(1)

	withCollectHook(t, func() {
		if err := runTx(w1, func(tx *core.Tx) error {
			return tx.Put(users, []byte("u003"), userVal("BER", 3, name(3)))
		}); err != nil {
			t.Fatalf("concurrent move: %v", err)
		}
	})

	tx := w0.Begin()
	torn := false
	err := Scan(tx, byCity, []byte("AMS"), []byte("AMT"), 0, func(sk, pk, val []byte) bool {
		if string(sk) != string(val[:len(sk)]) {
			torn = true // AMS entry paired with a BER row: must not commit
		}
		return true
	})
	if err != nil && err != core.ErrConflict {
		tx.Abort()
		t.Fatalf("batched scan err = %v", err)
	}
	if err == nil {
		err = tx.Commit()
	} else {
		tx.Abort()
	}
	if err != core.ErrConflict {
		t.Fatalf("scan after concurrent secondary-key move committed (err=%v, torn=%v)", err, torn)
	}
}

// TestBatchedResolveSameKeyUpdateInGap is the positive control: a
// concurrent update that keeps the secondary key is serializable as
// writer-before-scanner, so the scan commits and every resolved value is
// the post-update one — all-or-nothing, never a mix rejected by
// validation.
func TestBatchedResolveSameKeyUpdateInGap(t *testing.T) {
	s, users, byCity := batchedSetup(t)
	w0, w1 := s.Worker(0), s.Worker(1)

	withCollectHook(t, func() {
		if err := runTx(w1, func(tx *core.Tx) error {
			return tx.Put(users, []byte("u003"), userVal("AMS", 333, name(3)))
		}); err != nil {
			t.Fatalf("concurrent update: %v", err)
		}
	})

	tx := w0.Begin()
	sawNew := false
	n := 0
	err := Scan(tx, byCity, []byte("AMS"), []byte("AMT"), 0, func(sk, pk, val []byte) bool {
		n++
		if string(pk) == "u003" {
			var u uint64
			for _, b := range val[4:12] {
				u = u<<8 | uint64(b)
			}
			sawNew = u == 333
		}
		return true
	})
	if err != nil {
		tx.Abort()
		t.Fatalf("batched scan err = %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("serializable writer-before-scanner order rejected: %v", err)
	}
	if n != 8 || !sawNew {
		t.Fatalf("committed scan saw %d rows, sawNew=%v — torn or stale read committed", n, sawNew)
	}
}
