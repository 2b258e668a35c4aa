package recovery

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"silo/internal/core"
	"silo/internal/wal"
)

// TestDaemonCheckpointsTruncatesRecovers runs the checkpoint daemon
// concurrently with committing writers over a rotating log, then verifies
// (a) it took checkpoints and truncated covered segments, and (b) a crash
// at that point recovers, in parallel, to exactly the live state.
func TestDaemonCheckpointsTruncatesRecovers(t *testing.T) {
	const workers = 2
	const rounds = 400
	dir := t.TempDir()
	s, cat := catalogStore(t, fastOpts(workers))
	m, err := wal.Attach(s, wal.Config{
		Dir: dir, Loggers: 2, PollInterval: time.Millisecond, SegmentBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(func() { m.Stop(); s.Close() })
	tbl := create(t, cat, "t")[0]

	d := NewDaemon(s, m, DaemonOptions{Dir: dir, Interval: 3 * time.Millisecond, Partitions: 3})
	d.Start()

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			val := make([]byte, 64)
			for r := 0; r < rounds; r++ {
				i := wid*rounds + r
				copy(val, fmt.Sprintf("w%d-r%d", wid, r))
				if err := w.Run(func(tx *core.Tx) error {
					if err := tx.Insert(tbl, binKey(i), val); err == core.ErrKeyExists {
						return tx.Put(tbl, binKey(i), val)
					} else if err != nil {
						return err
					}
					return nil
				}); err != nil {
					t.Errorf("worker %d: %v", wid, err)
					return
				}
			}
		}(wid)
	}
	wg.Wait()
	waitDurable(t, s, m)
	d.Stop()

	// Manual ticks after quiescing, one per newly durable epoch: the
	// snapshot epoch soon covers every commit, so a checkpoint then covers
	// the whole log and the closed segments become truncatable.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := d.RunOnce(); err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		if st.TruncatedSegments > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no segments truncated; stats %+v", st)
		}
		m.WaitDurable(m.DurableEpoch() + 1)
	}
	st := d.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("daemon took no checkpoints")
	}
	if st.LastErr != nil {
		t.Fatalf("daemon error: %v", st.LastErr)
	}

	want := dump(t, s, tbl)
	m.Stop()
	s.Close()

	// Fewer log files than a full history: truncation really removed some.
	infos, err := wal.ListLogFiles(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("daemon: %d checkpoints, %d skipped ticks, %d segments truncated, %d segments remain",
		st.Checkpoints, st.Skipped, st.TruncatedSegments, len(infos))

	s2, res, err := recoverDir(t, dir, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointEpoch == 0 {
		t.Fatal("recovery did not use a checkpoint")
	}
	got := dump(t, s2, s2.Table("t"))
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %x: got %q want %q", k, got[k], v)
		}
	}
}

// TestDaemonSkipsWithoutProgress checks the daemon does not rewrite a
// checkpoint when the snapshot epoch has not advanced past the newest set,
// and that a restarted daemon resumes from the set on disk.
func TestDaemonSkipsWithoutProgress(t *testing.T) {
	s, _ := ckptStore(t, 50) // manual epochs: SE frozen between ticks
	dir := t.TempDir()
	m := attach(t, s, dir)
	d := NewDaemon(s, m, DaemonOptions{Dir: dir, Interval: time.Hour, Partitions: 2})
	if err := d.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Checkpoints != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := d.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Checkpoints != 1 || st.Skipped != 1 {
		t.Fatalf("second tick should have been skipped: %+v", st)
	}

	// A fresh daemon over the same dir resumes at the on-disk epoch.
	d2 := NewDaemon(s, m, DaemonOptions{Dir: dir, Interval: time.Hour, Partitions: 2})
	if err := d2.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.Checkpoints != 0 || st.Skipped != 1 {
		t.Fatalf("restarted daemon should skip: %+v", st)
	}
}
