package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"silo/internal/vfs"
)

// TestClockKick pins the simulated kick: a kicked ticker runs at the next
// Advance — Advance(0) included — at the current virtual time, before any
// due ticker; kicks coalesce; several kicked tickers run in registration
// order; a kick does not move the tick schedule; a kick raised by a
// callback is served by the same Advance; and a kick after Stop is dropped.
func TestClockKick(t *testing.T) {
	c := NewClock()
	var log []string
	var a, b vfs.Ticker
	a = c.Ticker(10*time.Millisecond, func() { log = append(log, fmt.Sprintf("a@%v", c.Now())) })
	b = c.Ticker(10*time.Millisecond, func() { log = append(log, fmt.Sprintf("b@%v", c.Now())) })
	expect := func(step string, want ...string) {
		t.Helper()
		if got := strings.Join(log, " "); got != strings.Join(want, " ") {
			t.Fatalf("%s: ran %q, want %q", step, got, strings.Join(want, " "))
		}
		log = log[:0]
	}

	b.Kick()
	a.Kick()
	a.Kick()
	expect("before Advance") // nothing runs on its own
	c.Advance(0)
	expect("Advance(0)", "a@0s", "b@0s") // once each, in id order
	c.Advance(0)
	expect("second Advance(0)")

	c.Advance(3 * time.Millisecond)
	b.Kick()
	c.Advance(7 * time.Millisecond) // the kick first, then both ticks, on schedule
	expect("kick then ticks", "b@3ms", "a@10ms", "b@10ms")

	// A callback's kick is served within the same Advance, right after it.
	var chained vfs.Ticker
	chained = c.Ticker(time.Hour, func() { log = append(log, "chained") })
	kicker := c.Ticker(5*time.Millisecond, func() {
		log = append(log, fmt.Sprintf("kicker@%v", c.Now()))
		chained.Kick()
	})
	c.Advance(5 * time.Millisecond)
	expect("chained kick", "kicker@15ms", "chained")
	kicker.Stop()

	b.Kick()
	b.Stop()
	a.Stop()
	chained.Stop()
	b.Kick()
	c.Advance(time.Second)
	expect("after Stop") // stopped tickers neither tick nor serve kicks
}
