package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"silo"
)

// TestDemandRespectsStraggler: demand closes epochs early only through the
// ordinary Advance on the epoch thread, so a straggler — a worker still
// inside a transaction it entered at epoch e_w — holds E ≤ e_w + 1 against
// demand and tick alike, and holds D below its own entry epoch. Its write
// is released (covered by D) only after it commits, by the logger pass its
// commit wakes — without waiting for a logger poll or the next tick.
// Every background step runs on the simulated clock; the durability
// waiters are real goroutines, as a group-ack server's connection writers
// are.
func TestDemandRespectsStraggler(t *testing.T) {
	fs, clock := NewFS(), NewClock()
	db := openSimDB(t, fs, clock)
	defer db.Close()
	tbl := db.CreateTable("t")
	demand := func() uint64 { return db.Observe().Value("silo_epoch_advances_total", "demand") }
	// wait starts a WaitDurable caller for epoch e — what a group-ack
	// connection writer is for each write it answers. The returned channel
	// closes when the waiter returns; released is the newest epoch a waiter
	// returned for.
	type waiter struct {
		e    uint64
		done chan struct{}
	}
	var waiters []waiter
	returned := make(chan struct{}, 1) // a token after any waiter returns
	wait := func(e uint64) chan struct{} {
		w := waiter{e, make(chan struct{})}
		go func() {
			db.WaitDurable(e)
			close(w.done)
			select {
			case returned <- struct{}{}:
			default:
			}
		}()
		waiters = append(waiters, w)
		return w.done
	}
	released := func() (r uint64) {
		for _, w := range waiters {
			select {
			case <-w.done:
				r = max(r, w.e)
			default:
			}
		}
		return r
	}
	// settle serves kicks until cond holds. Advance(0) never moves virtual
	// time, so no tick or logger poll comes due: only kicks run. The
	// waiters are real goroutines, so between Advances it waits for the
	// next thing one of them does: raise a kick, or return.
	settle := func(cond func() bool) bool {
		timeout := time.After(5 * time.Second)
		for {
			clock.Advance(0)
			if cond() {
				return true
			}
			select {
			case <-clock.Kicked():
			case <-returned:
			case <-timeout:
				return false
			}
		}
	}

	straggler := db.Store().Worker(1).Begin()
	ew := db.Epoch() // the straggler's e_w
	if err := straggler.Insert(tbl, []byte("s"), []byte("straggler")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := db.Run(0, func(tx *silo.Tx) error {
			return tx.Insert(tbl, []byte(fmt.Sprintf("k%02d", i)), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
		wait(db.LastCommitEpoch(0))
		if i == 0 {
			// E = e_w is open and the epoch before it durable: the first
			// waiter's demand closes it.
			settle(func() bool { return demand() > 0 })
		} else {
			clock.Advance(0) // serve the kicks the commit caused
		}
		if i%3 == 0 {
			clock.Advance(10 * time.Millisecond) // an epoch tick and two logger polls
		}
		if e := db.Epoch(); e > ew+1 {
			t.Fatalf("step %d: E = %d passed e_w + 1 = %d of an active worker", i, e, ew+1)
		}
		if d, r := db.DurableEpoch(), released(); d+1 > ew || r+1 > ew {
			t.Fatalf("step %d: D = %d (released %d) while a worker that entered at %d has not committed", i, d, r, ew)
		}
	}
	if demand() == 0 {
		t.Fatal("no epoch closed on demand before the straggler's bound")
	}

	if err := straggler.Commit(); err != nil {
		t.Fatal(err)
	}
	ce := db.LastCommitEpoch(1)
	wait(ce)
	if released() >= ce || db.DurableEpoch() >= ce {
		t.Fatalf("the straggler's epoch %d was released (D = %d) before any logger pass ran after its commit", ce, db.DurableEpoch())
	}
	before := demand()
	// No poll, no tick: only the kicks the commit and its waiter caused.
	if !settle(func() bool { return released() >= ce }) {
		t.Fatalf("after the straggler's commit woke its logger: D = %d, want ≥ its epoch %d", db.DurableEpoch(), ce)
	}
	if demand() == before {
		t.Error("the straggler's epoch closed without a demand advance")
	}
}

// TestRunDurableReturnsOnDemandPass: RunDurable needs no flush and no
// poll. Its wait closes the commit's epoch on demand, the advance kicks
// the logger, and that pass takes the worker's open buffer and makes the
// epoch durable: a power cut right after RunDurable returns keeps the
// write. Only kicks are served (Advance(0)), so virtual time never moves:
// neither the epoch tick nor the 5 ms logger poll ever fires.
func TestRunDurableReturnsOnDemandPass(t *testing.T) {
	fs, clock := NewFS(), NewClock()
	db := openSimDB(t, fs, clock)
	defer db.Close()
	tbl := db.CreateTable("t")
	start := clock.Now()
	demand := func() uint64 { return db.Observe().Value("silo_epoch_advances_total", "demand") }
	before := demand()
	done := make(chan error, 1)
	go func() {
		done <- db.RunDurable(0, func(tx *silo.Tx) error {
			return tx.Insert(tbl, []byte("k"), []byte("v"))
		})
	}()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if now := clock.Now(); now != start {
				t.Errorf("virtual time moved %v: a tick or a poll was needed", now-start)
			}
			if d, e := db.DurableEpoch(), db.LastCommitEpoch(0); d < e {
				t.Errorf("RunDurable returned with D = %d below its commit's epoch %d", d, e)
			}
			if demand() == before {
				t.Error("the commit's epoch closed without a demand advance")
			}
			if v, ok := simGet(t, recoverSim(t, fs.Crash(rand.New(rand.NewSource(1)))), "t", "k"); !ok || v != "v" {
				t.Errorf("after a crash the durable write reads %q, %v", v, ok)
			}
			return
		case <-clock.Kicked():
			clock.Advance(0)
		case <-timeout:
			t.Fatalf("RunDurable still waiting with only kicks served: D = %d, E = %d", db.DurableEpoch(), db.Epoch())
		}
	}
}
