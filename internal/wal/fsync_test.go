package wal

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"silo/internal/core"
	"silo/internal/vfs"
)

// failSyncFS is the real filesystem with log files whose Sync fails from
// the failAt-th call on (counted across files).
type failSyncFS struct {
	vfs.FS
	syncs, failAt int
}

func (fs *failSyncFS) OpenAppend(path string) (vfs.File, int64, error) {
	f, size, err := fs.FS.OpenAppend(path)
	return &failSyncFile{File: f, fs: fs}, size, err
}

type failSyncFile struct {
	vfs.File
	fs *failSyncFS
}

func (f *failSyncFile) Sync() error {
	if f.fs.syncs++; f.fs.syncs >= f.fs.failAt {
		return errors.New("injected EIO")
	}
	return f.File.Sync()
}

// heldClock never fires its tickers: the test runs each logger pass itself.
type heldClock struct{}

func (heldClock) Now() time.Duration                      { return 0 }
func (heldClock) Ticker(time.Duration, func()) vfs.Ticker { return heldClock{} }
func (heldClock) Stop()                                   {}
func (heldClock) Kick()                                   {}

// TestFailedFsyncNeverPublishesDurable is the fsyncgate contract: when
// the fsync covering an epoch fails, that epoch is never reported durable
// — not by the logger's d_l, not by D, not to a WaitDurable caller — and
// the failure surfaces as a fail-stop panic naming the fsync, exactly as
// a failed log write does. Before, Sync's error was dropped and the pass
// went on to publish.
func TestFailedFsyncNeverPublishesDurable(t *testing.T) {
	opts := core.DefaultOptions(1)
	opts.ManualEpochs = true
	s := core.NewStore(opts)
	defer s.Close()
	tbl := s.CreateTable("t")
	fs := &failSyncFS{FS: vfs.OS, failAt: 2}
	m, err := Attach(s, Config{Dir: t.TempDir(), Sync: true, FS: fs, Clock: heldClock{}})
	if err != nil {
		t.Fatal(err)
	}
	m.Start() // never stopped: a fail-stopped logger has no clean shutdown
	lg := m.loggers[0]
	// commitAndPass commits one write in the current epoch, closes the
	// epoch, and runs the logger pass that would make it durable.
	commitAndPass := func() (epoch uint64, failure any) {
		epoch = s.Epochs().Global()
		if err := s.Worker(0).Run(func(tx *core.Tx) error {
			return tx.Insert(tbl, []byte(fmt.Sprint("k", epoch)), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
		m.WorkerLog(0).Heartbeat()
		s.Epochs().AdvanceTo(epoch + 1)
		defer func() { failure = recover() }()
		lg.iterate()
		return epoch, nil
	}

	good, failure := commitAndPass()
	if failure != nil || m.DurableEpoch() != good {
		t.Fatalf("healthy pass: D = %d, panic %v; want D = %d", m.DurableEpoch(), failure, good)
	}
	m.WaitDurable(good) // returns at once: good is durable

	lost, failure := commitAndPass()
	if msg, _ := failure.(string); !strings.Contains(msg, "fsync failed") || !strings.Contains(msg, "injected EIO") {
		t.Fatalf("pass over a failing fsync ended with %v; want a fail-stop panic naming the fsync error", failure)
	}
	if d, dl := m.DurableEpoch(), lg.dl.Load(); d != good || dl != good {
		t.Errorf("after the failed fsync of epoch %d: D = %d, d_l = %d; both must stay at %d", lost, d, dl, good)
	}
	released := make(chan struct{})
	go func() {
		m.WaitDurable(lost)
		close(released)
	}()
	select {
	case <-released:
		t.Errorf("a WaitDurable(%d) caller was released after the failed fsync (D = %d)", lost, m.DurableEpoch())
	case <-time.After(50 * time.Millisecond):
	}
}
