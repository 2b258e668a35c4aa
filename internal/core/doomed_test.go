package core

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"silo/internal/obs"
	"silo/internal/trace"
	"silo/internal/vfs"
)

// The tests here pin how a transaction ends when fn does not return nil.
// Reads are invisible and unvalidated until commit (§4.4), so an attempt
// can observe two records from different serial points; each test makes
// that happen deterministically by having worker 1 commit a transfer
// between worker 0's two reads of an invariant (a + b = 100).

var (
	doomedA = []byte("a")
	doomedB = []byte("b")
)

// doomedStore holds two accounts of 50 on a manual-epoch store.
func doomedStore(t *testing.T) (*Store, *Table) {
	t.Helper()
	s := manualStore(t, 2, nil)
	tbl := s.CreateTable("accounts")
	if err := s.Worker(0).Run(func(tx *Tx) error {
		if err := tx.Insert(tbl, doomedA, u64(50)); err != nil {
			return err
		}
		return tx.Insert(tbl, doomedB, u64(50))
	}); err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

func u64(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

// interleaved returns a transaction body that reads a, has worker 1 commit
// a transfer of 10 from a to b the first time it runs, reads b, and hands
// the sum it saw to check. attempts counts its runs.
func interleaved(t *testing.T, s *Store, tbl *Table, check func(sum uint64) error) (fn func(tx *Tx) error, attempts *int) {
	attempts = new(int)
	fn = func(tx *Tx) error {
		*attempts++
		va, err := tx.Get(tbl, doomedA)
		if err != nil {
			return err
		}
		if *attempts == 1 {
			if err := s.Worker(1).Run(func(tx1 *Tx) error {
				a, _ := tx1.Get(tbl, doomedA)
				b, _ := tx1.Get(tbl, doomedB)
				if err := tx1.Put(tbl, doomedA, u64(binary.BigEndian.Uint64(a)-10)); err != nil {
					return err
				}
				return tx1.Put(tbl, doomedB, u64(binary.BigEndian.Uint64(b)+10))
			}); err != nil {
				t.Fatalf("interleaved transfer: %v", err)
			}
		}
		vb, err := tx.Get(tbl, doomedB)
		if err != nil {
			return err
		}
		return check(binary.BigEndian.Uint64(va) + binary.BigEndian.Uint64(vb))
	}
	return fn, attempts
}

// catch runs f, returning the value it panicked with or its error.
func catch(f func() error) (p any, err error) {
	defer func() { p = recover() }()
	return nil, f()
}

func abortCount(s *Store, reason string) uint64 {
	var snap obs.Snapshot
	s.CollectObs(&snap)
	return snap.Value("silo_core_aborts_total", reason)
}

var errBroken = errors.New("invariant broken: a + b != 100")

func checkSum(sum uint64) error {
	if sum != 100 {
		return errBroken
	}
	return nil
}

// TestDoomedErrorRetries: an error fn computed from reads that do not
// validate is not an observation — Run retries the attempt to a commit,
// RunOnce reports ErrConflict — and it is counted as doomed, with the
// conflicting table and key in the flight recorder. An error from reads
// that do validate is returned as ever.
func TestDoomedErrorRetries(t *testing.T) {
	s, tbl := doomedStore(t)
	w := s.Worker(0)

	fn, attempts := interleaved(t, s, tbl, checkSum)
	if err := w.Run(fn); err != nil {
		t.Fatalf("Run = %v after %d attempts; want the doomed attempt retried to a commit", err, *attempts)
	}
	if *attempts != 2 {
		t.Errorf("Run took %d attempts, want 2", *attempts)
	}

	fn, _ = interleaved(t, s, tbl, checkSum)
	if err := w.RunOnce(fn); err != ErrConflict {
		t.Fatalf("RunOnce = %v, want ErrConflict for an error from a doomed attempt", err)
	}
	if got := abortCount(s, "doomed"); got != 2 {
		t.Errorf("doomed aborts = %d, want 2", got)
	}
	events := s.Flight().Dump()
	var last trace.Event
	for _, e := range events {
		if e.Kind == trace.EvAbort {
			last = e
		}
	}
	if last.Aux != uint16(abortDoomed) || last.Table != tbl.ID || last.A != trace.HashKey(doomedA) {
		t.Errorf("last abort event = %+v; want reason doomed on table %d, key %q", last, tbl.ID, doomedA)
	}

	if err := w.Run(func(tx *Tx) error {
		if _, err := tx.Get(tbl, doomedA); err != nil {
			return err
		}
		return errBroken
	}); err != errBroken {
		t.Fatalf("error from consistent reads: Run = %v, want it returned", err)
	}
	if got := abortCount(s, "explicit"); got != 1 {
		t.Errorf("explicit aborts = %d, want 1", got)
	}
}

// TestDoomedPanicRetries: a panic in fn on a doomed attempt is a conflict,
// retried like one.
func TestDoomedPanicRetries(t *testing.T) {
	s, tbl := doomedStore(t)
	fn, attempts := interleaved(t, s, tbl, func(sum uint64) error {
		if sum != 100 {
			panic(errBroken)
		}
		return nil
	})
	if p, err := catch(func() error { return s.Worker(0).Run(fn) }); err != nil || p != nil {
		t.Fatalf("Run = %v, panic %v; want the doomed attempt's panic retried to a commit", err, p)
	}
	if *attempts != 2 {
		t.Errorf("Run took %d attempts, want 2", *attempts)
	}
	if got := abortCount(s, "doomed"); got != 1 {
		t.Errorf("doomed aborts = %d, want 1", got)
	}
}

// TestPanicAbortsAndContinues: a panic from consistent reads is the
// application's; the transaction is aborted — its insert never lands —
// the original value continues, and the worker runs its next transaction.
func TestPanicAbortsAndContinues(t *testing.T) {
	s, tbl := doomedStore(t)
	w := s.Worker(0)
	p, _ := catch(func() error {
		return w.Run(func(tx *Tx) error {
			if err := tx.Insert(tbl, []byte("c"), u64(1)); err != nil {
				return err
			}
			panic(errBroken)
		})
	})
	if p != errBroken {
		t.Fatalf("recovered %v, want the original panic value", p)
	}
	p, err := catch(func() error {
		return w.Run(func(tx *Tx) error {
			_, err := tx.Get(tbl, []byte("c"))
			return err
		})
	})
	if p != nil || err != ErrNotFound {
		t.Fatalf("next transaction on the worker = %v, panic %v; want ErrNotFound (the insert aborted)", err, p)
	}
	if got := abortCount(s, "explicit"); got != 2 {
		t.Errorf("explicit aborts = %d, want 2 (the panic and the miss)", got)
	}
}

// countingClock counts reads of the store clock.
type countingClock struct {
	vfs.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Duration {
	c.reads.Add(1)
	return c.Clock.Now()
}

// TestCommitClockReads: Commit reads the store clock only on a sampled or
// traced commit, four times, and both the phase histograms and the spans
// are cut from those reads. (The flight recorder stamps its events on the
// same clock; it is off here.)
func TestCommitClockReads(t *testing.T) {
	clock := &countingClock{Clock: vfs.WallClock}
	s := manualStore(t, 1, func(o *Options) { o.Clock = clock; o.DisableTrace = true })
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	key := 0
	commit := func(sp *trace.Spans) int64 {
		tx := w.Begin()
		tx.spans = sp
		key++
		if err := tx.Insert(tbl, u64(uint64(key)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		before := clock.reads.Load()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return clock.reads.Load() - before
	}
	for i := 1; i < phaseSampleInterval; i++ {
		if n := commit(nil); n != 0 {
			t.Fatalf("untraced, unsampled commit %d read the clock %d times, want 0", i, n)
		}
	}
	if n := commit(nil); n != 4 {
		t.Errorf("sampled commit read the clock %d times, want 4", n)
	}
	var sp trace.Spans
	if n := commit(&sp); n != 4 {
		t.Errorf("traced commit read the clock %d times, want 4", n)
	}
	if sp.TID == 0 || sp.Validate < 0 || sp.Log < 0 {
		t.Errorf("traced commit spans = %+v", sp)
	}
	var snap obs.Snapshot
	s.CollectObs(&snap)
	if got := snap.Get("silo_core_commit_phase_ns", "lock").Hist.Count; got != 1 {
		t.Errorf("lock phase observations = %d, want 1 (the sampled commit)", got)
	}
}
