package core

import (
	"errors"
	"testing"
	"time"

	"silo/internal/obs"
	"silo/internal/tid"
)

func TestCollectObsCountsAndTables(t *testing.T) {
	s := NewStore(Options{Workers: 1, ManualEpochs: true, GC: true, Snapshots: true})
	defer s.Close()
	a := s.CreateTable("alpha")
	b := s.CreateTable("beta")
	w := s.Worker(0)

	for i := 0; i < 5; i++ {
		if err := w.Run(func(tx *Tx) error {
			if err := tx.Insert(a, []byte{byte(i + 1)}, []byte("v")); err != nil {
				return err
			}
			return tx.Insert(b, []byte{byte(i + 1)}, []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(func(tx *Tx) error {
		_, err := tx.Get(a, []byte{1})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// One explicit abort and one hook-poisoned abort.
	tx := w.Begin()
	tx.Abort()
	boom := errors.New("boom")
	a.AddWriteHook(failingHook{err: boom})
	tx = w.Begin()
	if err := tx.Put(a, []byte{1}, []byte("x")); err != boom {
		t.Fatalf("hooked put err = %v", err)
	}
	if err := tx.Commit(); err != boom {
		t.Fatalf("poisoned commit err = %v", err)
	}

	var snap obs.Snapshot
	s.CollectObs(&snap)
	if got := snap.Value("silo_core_commits_total", ""); got != 6 {
		t.Errorf("commits = %d, want 6", got)
	}
	if got := snap.Value("silo_core_aborts_total", "explicit"); got != 1 {
		t.Errorf("explicit aborts = %d, want 1", got)
	}
	if got := snap.Value("silo_core_aborts_total", "hook_poisoned"); got != 1 {
		t.Errorf("hook_poisoned aborts = %d, want 1", got)
	}
	// 5 committed inserts plus the poisoned Put's staged write: tallies
	// flush on abort too, so staged-then-aborted writes are visible.
	if got := snap.Value("silo_table_writes_total", "alpha"); got != 6 {
		t.Errorf("alpha writes = %d, want 6", got)
	}
	if got := snap.Value("silo_table_writes_total", "beta"); got != 5 {
		t.Errorf("beta writes = %d, want 5", got)
	}
	if got := snap.Value("silo_table_reads_total", "alpha"); got == 0 {
		t.Error("alpha reads = 0, want > 0")
	}
}

type failingHook struct{ err error }

func (h failingHook) OnInsert(tx *Tx, pk, val []byte) error            { return h.err }
func (h failingHook) OnUpdate(tx *Tx, pk, oldVal, newVal []byte) error { return h.err }
func (h failingHook) OnDelete(tx *Tx, pk, oldVal []byte) error         { return h.err }

func TestAbortBreakdownValidation(t *testing.T) {
	s := NewStore(Options{Workers: 2, ManualEpochs: true})
	defer s.Close()
	tab := s.CreateTable("t")
	w0, w1 := s.Worker(0), s.Worker(1)
	if err := w0.Run(func(tx *Tx) error { return tx.Insert(tab, []byte{1}, []byte("a")) }); err != nil {
		t.Fatal(err)
	}
	// w0 reads key 1, w1 overwrites it, w0's commit must fail read
	// validation.
	tx := w0.Begin()
	if _, err := tx.Get(tab, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := w1.Run(func(tx1 *Tx) error { return tx1.Put(tab, []byte{1}, []byte("b")) }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != ErrConflict {
		t.Fatalf("commit err = %v, want ErrConflict", err)
	}
	var snap obs.Snapshot
	s.CollectObs(&snap)
	if got := snap.Value("silo_core_aborts_total", "read_validation"); got != 1 {
		t.Errorf("read_validation aborts = %d, want 1", got)
	}
}

// TestEpochFullAbortsAndClosesEpoch: a write whose epoch has no sequence
// number left above what it observed is not given a TID of a later epoch.
// Its commit aborts with reason epoch_full, asks for the epoch to close
// (an hour-long tick cannot be what advances it here), and Run's retry
// commits in the next epoch. A read-only transaction over the same record
// installs nothing and commits in place.
func TestEpochFullAbortsAndClosesEpoch(t *testing.T) {
	opts := DefaultOptions(1)
	opts.EpochInterval = time.Hour
	s := NewStore(opts)
	defer s.Close()
	tab := s.CreateTable("t")
	w := s.Worker(0)
	key := []byte("k")
	if err := w.Run(func(tx *Tx) error { return tx.Insert(tab, key, []byte("a")) }); err != nil {
		t.Fatal(err)
	}
	e := s.Epochs().Global()
	rec, _, _ := tab.Tree.Get(key)
	rec.Lock()
	rec.Unlock(tid.Make(e, tid.MaxSeq).WithLatest(true)) // the epoch's last TID

	if err := w.Run(func(tx *Tx) error { _, err := tx.Get(tab, key); return err }); err != nil {
		t.Fatalf("read-only transaction over a full epoch: %v", err)
	}
	if err := w.Run(func(tx *Tx) error { return tx.Put(tab, key, []byte("b")) }); err != nil {
		t.Fatal(err)
	}
	if got, cur := tid.Word(w.LastCommitTID()).Epoch(), s.Epochs().Global(); got != e+1 || cur < got {
		t.Fatalf("write committed with a TID of epoch %d while E = %d; want epoch %d, the one after the full epoch", got, cur, e+1)
	}
	var snap obs.Snapshot
	s.CollectObs(&snap)
	if got := snap.Value("silo_core_aborts_total", "epoch_full"); got == 0 {
		t.Error("no epoch_full abort counted")
	}
	if got := snap.Value("silo_epoch_advances_total", "demand"); got == 0 {
		t.Error("the full epoch was not closed on demand")
	}
	if got := snap.Value("silo_core_aborts_total", "read_validation") + snap.Value("silo_core_aborts_total", "explicit"); got != 0 {
		t.Errorf("%d aborts for other reasons", got)
	}
}
