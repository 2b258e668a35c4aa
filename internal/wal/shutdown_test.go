package wal

import (
	"testing"
	"time"

	"silo/internal/core"
	"silo/internal/tid"
)

// stoppedStore commits one transaction at the store's start epoch and shuts
// the manager down cleanly, without any durability waiting in between —
// exactly the shutdown path an embedded application takes. ManualEpochs
// pins the commit at epoch 1, so the outcome is deterministic.
func stoppedStore(t *testing.T) (dir string, commitEpoch uint64) {
	t.Helper()
	dir = t.TempDir()
	opts := core.DefaultOptions(1)
	opts.ManualEpochs = true
	s := core.NewStore(opts)
	s.CreateTable("t")
	m, err := Attach(s, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	w := s.Worker(0)
	if err := w.Run(func(tx *core.Tx) error {
		return tx.Insert(s.Table("t"), []byte("last"), []byte("write"))
	}); err != nil {
		t.Fatal(err)
	}
	commitEpoch = tid.Word(w.LastCommitTID()).Epoch()
	m.Stop()
	s.Close()
	return dir, commitEpoch
}

// TestStopDrainsFinalEpoch is the regression test for the clean-shutdown
// drain bug: a commit in the current epoch, followed immediately by Stop,
// must be recovered. Historically Stop flushed the buffers (the bytes were
// on disk) but never advanced the epoch, so the final durable marker stayed
// one epoch behind and recovery — correctly honouring D — discarded the
// final epoch's acknowledged commits.
func TestStopDrainsFinalEpoch(t *testing.T) {
	dir, commitEpoch := stoppedStore(t)

	st := replayLog(t, dir)
	if st.D < commitEpoch {
		t.Fatalf("clean shutdown left D=%d behind the last commit epoch %d", st.D, commitEpoch)
	}
	if v, ok := st.rows[0]["last"]; !ok || v != "write" {
		t.Fatalf("final-epoch commit lost on clean shutdown: recovered %q, %v", v, ok)
	}
}

// TestStopReleasesWaiters: a WaitDurable caller returns once Stop's final
// drain has run, even for an epoch the drain did not make durable (one a
// caller read from E while Stop advanced it), and a call after Stop
// returns at once. A group-ack server's connection writers rely on it when
// the database is closed before the server.
func TestStopReleasesWaiters(t *testing.T) {
	opts := core.DefaultOptions(1)
	opts.ManualEpochs = true
	s := core.NewStore(opts)
	defer s.Close()
	m, err := Attach(s, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	beyond := s.Epochs().Global() + 5
	released := make(chan struct{})
	go func() {
		m.WaitDurable(beyond)
		close(released)
	}()
	m.Stop()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatalf("WaitDurable(%d) still blocked after Stop (D = %d)", beyond, m.DurableEpoch())
	}
	if d := m.DurableEpoch(); d >= beyond {
		t.Fatalf("D = %d after Stop: the waiter's epoch %d was durable after all", d, beyond)
	}
	m.WaitDurable(beyond)
}
