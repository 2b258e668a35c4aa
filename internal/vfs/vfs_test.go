package vfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestOSMap: the real filesystem maps a file's exact bytes, an empty file to
// none, and refuses a directory or a missing file.
func TestOSMap(t *testing.T) {
	dir := t.TempDir()
	want := bytes.Repeat([]byte("segment "), 1000)
	full, empty := filepath.Join(dir, "full"), filepath.Join(dir, "empty")
	if err := os.WriteFile(full, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	data, release, err := OS.Map(full)
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("Map: %d bytes, err %v; want the %d written", len(data), err, len(want))
	}
	release()
	if data, release, err := OS.Map(empty); err != nil || len(data) != 0 {
		t.Fatalf("Map of an empty file: %d bytes, err %v", len(data), err)
	} else {
		release()
	}
	if _, _, err := OS.Map(dir); err == nil {
		t.Fatal("Map of a directory succeeded")
	}
	if _, _, err := OS.Map(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Map of a missing file: %v, want not-exist", err)
	}
}

// TestWallTickerKick: a kick runs the callback on the ticker's goroutine
// without waiting for the period, kicks that arrive while the callback
// runs coalesce into one more run, and a kick after Stop is dropped.
func TestWallTickerKick(t *testing.T) {
	ran := make(chan struct{})
	release := make(chan struct{})
	tk := WallClock.Ticker(time.Hour, func() {
		ran <- struct{}{}
		<-release
	})
	waitRun := func(what string) {
		t.Helper()
		select {
		case <-ran:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: callback never ran", what)
		}
	}

	tk.Kick()
	waitRun("first kick")
	for i := 0; i < 3; i++ {
		tk.Kick() // the callback is busy: these coalesce
	}
	release <- struct{}{}
	waitRun("coalesced kicks")
	release <- struct{}{}
	select {
	case <-ran:
		t.Fatal("three kicks during one run caused more than one further run")
	case <-time.After(20 * time.Millisecond):
	}

	tk.Stop()
	tk.Kick()
	select {
	case <-ran:
		t.Fatal("a kick after Stop ran the callback")
	case <-time.After(20 * time.Millisecond):
	}
}
