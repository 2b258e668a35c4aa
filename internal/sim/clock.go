package sim

import (
	"sync"
	"time"

	"silo/internal/vfs"
)

// Clock is a manually stepped vfs.Clock. Tickers never fire on their own;
// Advance moves virtual time forward and runs every due callback
// synchronously on the caller's goroutine, in a deterministic order
// (earliest due time first, registration order breaking ties). Under this
// clock the epoch advancer, the logger passes, and the checkpoint daemon
// have no goroutines at all — background activity becomes an explicit,
// replayable event stream.
//
// A kicked ticker (vfs.Ticker.Kick) runs at the next Advance, at the
// current virtual time, before any due ticker; several kicked tickers run
// in registration order. A kick raised by a callback inside Advance is
// served by that same Advance, right after the callback returns — the
// simulated counterpart of "as soon as the ticker's goroutine is free".
type Clock struct {
	mu      sync.Mutex
	now     time.Duration
	nextID  int
	tickers []*simTicker
}

type simTicker struct {
	c       *Clock
	id      int
	period  time.Duration
	next    time.Duration
	fn      func()
	kicked  bool
	stopped bool
}

// NewClock returns a clock at virtual time zero with no tickers.
func NewClock() *Clock { return &Clock{} }

// Ticker implements vfs.Clock.
func (c *Clock) Ticker(d time.Duration, fn func()) vfs.Ticker {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		d = time.Nanosecond
	}
	t := &simTicker{c: c, id: c.nextID, period: d, next: c.now + d, fn: fn}
	c.nextID++
	c.tickers = append(c.tickers, t)
	return t
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves virtual time forward by d, running every kicked ticker and
// then every ticker that comes due, synchronously. A callback may register,
// stop or kick tickers; it runs without the clock lock held.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now + d
	for {
		next := c.nextLocked(target)
		if next == nil {
			break
		}
		if next.kicked {
			next.kicked = false
		} else {
			c.now = next.next
			next.next += next.period
		}
		fn := next.fn
		c.mu.Unlock()
		fn()
		c.mu.Lock()
	}
	c.now = target
	c.mu.Unlock()
}

// nextLocked picks the callback Advance runs next: the lowest-id kicked
// ticker, else the earliest ticker due by target. Caller holds mu.
func (c *Clock) nextLocked(target time.Duration) *simTicker {
	var due *simTicker
	for _, t := range c.tickers {
		if t.stopped {
			continue
		}
		if t.kicked {
			return t // tickers are in id order
		}
		if t.next > target {
			continue
		}
		if due == nil || t.next < due.next || (t.next == due.next && t.id < due.id) {
			due = t
		}
	}
	return due
}

// Stop implements vfs.Ticker. Callbacks run synchronously from Advance,
// so once Stop returns (on any goroutine that isn't inside Advance) no
// callback is in flight.
func (t *simTicker) Stop() {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	t.stopped = true
}

// Kick implements vfs.Ticker: the callback runs at the next Advance.
func (t *simTicker) Kick() {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if !t.stopped {
		t.kicked = true
	}
}
