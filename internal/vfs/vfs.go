// Package vfs abstracts the clock and the filesystem underneath the
// durability subsystem (internal/wal, internal/recovery, internal/epoch).
//
// Production code runs against the OS implementations below, reached
// through one virtual call per file operation or timer tick — nothing on
// the transaction hot path goes through vfs at all. The deterministic
// simulation harness (internal/sim) substitutes an in-memory filesystem
// with crash fault injection and a manually stepped clock, which is what
// lets whole commit/checkpoint/DDL/crash/recover histories run
// single-threaded and replay byte-identically from a seed.
package vfs

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// File is the writable-file surface the WAL and checkpoint writers use.
type File interface {
	io.Writer
	// Sync flushes written data to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the filesystem surface of the durability subsystem. Paths follow
// the usual os semantics; implementations must allow concurrent calls.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Mkdir creates dir, failing if it exists.
	Mkdir(dir string) error
	// OpenAppend opens path for appending, creating it if absent, and
	// returns the open file along with its current size.
	OpenAppend(path string) (File, int64, error)
	// Create truncates or creates path for writing.
	Create(path string) (File, error)
	// Map returns the entire contents of path, valid until release is
	// called. The real filesystem maps the file where it can (mmap on
	// unix), so reading a log segment or checkpoint part neither zeroes nor
	// copies a buffer; the file must not shrink while mapped. The bytes are
	// read-only. After release they may be unmapped, or overwritten (the
	// simulation's FS poisons them), so a caller that keeps any of them —
	// a key, a value, a name — copies it first. Call release exactly once.
	Map(path string) (data []byte, release func(), err error)
	// Stat returns the size of path and whether it is a directory.
	Stat(path string) (size int64, isDir bool, err error)
	// Remove deletes a file; RemoveAll deletes a tree.
	Remove(path string) error
	RemoveAll(path string) error
	// Glob returns the paths matching pattern (filepath.Glob semantics for
	// the patterns the subsystem uses: a literal directory joined with a
	// basename pattern).
	Glob(pattern string) ([]string, error)
	// SyncDir fsyncs a directory, making the directory entries of files
	// created inside it durable. Crash safety of a freshly created file
	// needs both the file's own Sync and its parent's SyncDir; without the
	// latter the file itself may vanish on crash (the "reordered segment
	// visibility" failure mode).
	SyncDir(dir string) error
}

// Ticker is a periodic callback registered with Clock.Ticker.
type Ticker interface {
	// Stop halts the ticker. It waits for an in-flight callback to return,
	// so after Stop the callback never runs again and the caller may touch
	// the callback's state exclusively.
	Stop()
	// Kick runs the callback once more, on the ticker's own goroutine, as
	// soon as it is free. Kicks coalesce — any number of them before the
	// callback starts cause one run — and do not reset the period. A kick
	// after Stop is dropped. Kick never blocks and is safe from any
	// goroutine, the callback's own included.
	Kick()
}

// Clock abstracts time for the periodic loops of the durability subsystem:
// the epoch advancer, the logger passes, and the checkpoint daemon — and,
// since the flight recorder, for event timestamps.
type Clock interface {
	// Ticker arranges for fn to run about every d, and whenever kicked,
	// until Stop. The real clock runs fn serially on a dedicated
	// goroutine; the simulation clock runs it synchronously from its
	// manual Advance.
	Ticker(d time.Duration, fn func()) Ticker
	// Now reads the clock as an offset from an arbitrary but fixed
	// origin. The real clock is monotonic from process start; the
	// simulation clock returns its virtual time, which is what keeps
	// flight-recorder timestamps byte-identical across replays.
	Now() time.Duration
}

// OS is the real filesystem.
var OS FS = osFS{}

// WallClock is real time.
var WallClock Clock = wallClock{}

// DefaultFS returns fs, or the OS filesystem when fs is nil.
func DefaultFS(fs FS) FS {
	if fs == nil {
		return OS
	}
	return fs
}

// DefaultClock returns c, or the wall clock when c is nil.
func DefaultClock(c Clock) Clock {
	if c == nil {
		return WallClock
	}
	return c
}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }
func (osFS) Mkdir(dir string) error    { return os.Mkdir(dir, 0o755) }

func (osFS) OpenAppend(path string) (File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	var size int64
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	return f, size, nil
}

func (osFS) Create(path string) (File, error) { return os.Create(path) }

func (osFS) Stat(path string) (int64, bool, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, false, err
	}
	return st.Size(), st.IsDir(), nil
}

func (osFS) Remove(path string) error    { return os.Remove(path) }
func (osFS) RemoveAll(path string) error { return os.RemoveAll(path) }

func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

type wallClock struct{}

// processStart anchors wallClock.Now. Go's time.Since reads the
// monotonic clock, so the offsets are immune to wall-time jumps.
var processStart = time.Now()

func (wallClock) Now() time.Duration { return time.Since(processStart) }

func (wallClock) Ticker(d time.Duration, fn func()) Ticker {
	t := &wallTicker{
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
		kick:    make(chan struct{}, 1),
	}
	go func() {
		defer close(t.stopped)
		tk := time.NewTicker(d)
		defer tk.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tk.C:
			case <-t.kick:
			}
			fn()
		}
	}()
	return t
}

type wallTicker struct {
	once    sync.Once
	stop    chan struct{}
	stopped chan struct{}
	kick    chan struct{} // one slot: pending kicks coalesce
}

func (t *wallTicker) Stop() {
	t.once.Do(func() { close(t.stop) })
	<-t.stopped
}

func (t *wallTicker) Kick() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}
