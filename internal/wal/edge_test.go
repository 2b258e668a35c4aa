package wal

import (
	"fmt"
	"sync"
	"testing"

	"silo/internal/core"
	"silo/internal/obs"
	"silo/internal/tid"
)

// TestSmallBufferForcesPublish: a tiny worker buffer closes mid-epoch,
// many times between passes, and the pass writes every closed buffer from
// the worker's list; everything still recovers.
func TestSmallBufferForcesPublish(t *testing.T) {
	dir := t.TempDir()
	s, m := attachedStore(t, 1, Config{Dir: dir, BufferBytes: 64})
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	for i := 0; i < 100; i++ {
		if err := w.Run(func(tx *core.Tx) error {
			return tx.Insert(tbl, []byte(fmt.Sprintf("key%04d", i)), []byte("some value bytes here"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	makeDurable(t, s, m, 1)
	m.Stop()
	var snap obs.Snapshot
	m.CollectObs(&snap)
	if n := snap.Value("silo_wal_buffers_written_total", ""); n < 10 {
		t.Fatalf("expected many small buffers, wrote %d", n)
	}
	s.Close()

	if n := len(replayLog(t, dir).rows[tbl.ID]); n != 100 {
		t.Fatalf("the log recovers %d keys", n)
	}
}

// TestMultiLoggerAssignment: workers spread round-robin over loggers, each
// logger with its own file; D = min d_l still covers everything.
func TestMultiLoggerAssignment(t *testing.T) {
	dir := t.TempDir()
	s, m := attachedStore(t, 4, Config{Dir: dir, Loggers: 3})
	tbl := s.CreateTable("t")
	stop := runPasses(s, m)
	var wg sync.WaitGroup
	for wid := 0; wid < 4; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			for i := 0; i < 50; i++ {
				if err := w.Run(func(tx *core.Tx) error {
					return tx.Insert(tbl, []byte(fmt.Sprintf("w%d-%03d", wid, i)), []byte("v"))
				}); err != nil {
					t.Errorf("w%d: %v", wid, err)
					return
				}
			}
		}(wid)
	}
	wg.Wait()
	stop()
	makeDurable(t, s, m, 4)
	m.Stop()
	s.Close()

	_, files, durables := readLogDir(t, dir)
	if len(files) != 3 {
		t.Fatalf("%d log files, want 3", len(files))
	}
	nonEmpty := 0
	for i, f := range files {
		if len(f) > 0 {
			nonEmpty++
		}
		if durables[i] == 0 {
			t.Errorf("log.%d has no durable frame", i)
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("only %d loggers received data", nonEmpty)
	}

	if n := len(replayLog(t, dir).rows[tbl.ID]); n != 200 {
		t.Fatalf("the log recovers %d keys, want 200", n)
	}
}

// TestDurableEpochAdvancesWithIdleWorker: the liveness refinement — worker
// 0 commits once and never runs again, worker 1 is permanently idle; the
// first pass after the commit's epoch closes must make it durable. Nobody
// flushes: the commit sits in worker 0's open buffer, and the pass takes
// it, so it is on disk before Stop.
func TestDurableEpochAdvancesWithIdleWorker(t *testing.T) {
	dir := t.TempDir()
	s, m := attachedStore(t, 2, Config{Dir: dir})
	tbl := s.CreateTable("t")
	w := s.Worker(0) // worker 1 never runs anything
	if err := w.Run(func(tx *core.Tx) error {
		return tx.Insert(tbl, []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	commit := w.LastCommitTID()
	target := tid.Word(commit).Epoch()
	pass(s, m)
	if m.DurableEpoch() < target {
		t.Fatalf("D stuck at %d < %d with an idle worker (liveness regression)", m.DurableEpoch(), target)
	}
	_, files, _ := readLogDir(t, dir)
	if len(files) != 1 || len(files[0]) != 1 || files[0][0].TID != commit {
		t.Fatalf("log after the pass = %+v, want the one commit %x", files, commit)
	}
	m.Stop()
}

// TestDurableNeverExceedsLogged: D must never claim an epoch whose
// transactions are not on stable storage. Stress: commits race epoch
// advances and logger passes; every transaction with epoch ≤ the published
// D must be in the log. The 64-byte buffer closes after every commit, so
// workers grow their closed lists while passes take them.
func TestDurableNeverExceedsLogged(t *testing.T) {
	for _, bufferBytes := range []int{0, 64} {
		t.Run(fmt.Sprintf("buffer=%d", bufferBytes), func(t *testing.T) {
			durableNeverExceedsLogged(t, bufferBytes)
		})
	}
}

func durableNeverExceedsLogged(t *testing.T, bufferBytes int) {
	dir := t.TempDir()
	s, m := attachedStore(t, 2, Config{Dir: dir, BufferBytes: bufferBytes})
	tbl := s.CreateTable("t")

	stop := runPasses(s, m)
	var wg sync.WaitGroup
	var mu sync.Mutex
	commits := map[uint64]int{} // epoch → count committed
	for wid := 0; wid < 2; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			for i := 0; i < 3000; i++ {
				if err := w.Run(func(tx *core.Tx) error {
					return tx.Insert(tbl, []byte(fmt.Sprintf("w%d-%06d", wid, i)), []byte("v"))
				}); err != nil {
					t.Errorf("w%d: %v", wid, err)
					return
				}
				mu.Lock()
				commits[tid.Word(w.LastCommitTID()).Epoch()]++
				mu.Unlock()
			}
		}(wid)
	}
	wg.Wait()
	stop()
	// Read the log as the passes left it, before Stop's drain writes the
	// rest.
	d := m.DurableEpoch()
	_, files, _ := readLogDir(t, dir)
	m.Stop()
	if d == 0 {
		t.Fatal("no epoch became durable while the workers ran")
	}
	logged := map[uint64]int{}
	for _, f := range files {
		for _, txn := range f {
			logged[tid.Word(txn.TID).Epoch()]++
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for e, n := range commits {
		if e <= d && logged[e] != n {
			t.Errorf("epoch %d: %d committed but %d logged (D=%d claims it durable)", e, n, logged[e], d)
		}
	}
}
