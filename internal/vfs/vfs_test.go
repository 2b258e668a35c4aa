package vfs

import (
	"testing"
	"time"
)

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
