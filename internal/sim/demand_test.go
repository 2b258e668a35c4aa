package sim

import (
	"fmt"
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
// Every step runs on the simulated clock, so the interleaving is the same
// on every run.
func TestDemandRespectsStraggler(t *testing.T) {
	fs, clock := NewFS(), NewClock()
	db := openSimDB(t, fs, clock)
	defer db.Close()
	tbl := db.CreateTable("t")
	notify, _ := db.DurableNotify() // a live waiter: from here on every commit is demand
	demand := func() uint64 { return db.Observe().Value("silo_epoch_advances_total", "demand") }
	released := uint64(0) // newest D the waiter has been told
	drain := func() {
		for {
			select {
			case d := <-notify:
				released = d
			default:
				return
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
		clock.Advance(0) // serve the kicks the commit caused
		if i%3 == 0 {
			clock.Advance(10 * time.Millisecond) // an epoch tick and two logger polls
		}
		drain()
		if e := db.Epoch(); e > ew+1 {
			t.Fatalf("step %d: E = %d passed e_w + 1 = %d of an active worker", i, e, ew+1)
		}
		if d := db.DurableEpoch(); d+1 > ew || released+1 > ew {
			t.Fatalf("step %d: D = %d (released %d) while a worker that entered at %d has not committed", i, d, released, ew)
		}
	}
	if demand() == 0 {
		t.Fatal("no epoch closed on demand before the straggler's bound")
	}

	if err := straggler.Commit(); err != nil {
		t.Fatal(err)
	}
	ce := db.LastCommitEpoch(1)
	drain()
	if released >= ce || db.DurableEpoch() >= ce {
		t.Fatalf("the straggler's epoch %d was released (D = %d) before any logger pass ran after its commit", ce, db.DurableEpoch())
	}
	before := demand()
	clock.Advance(0) // no poll, no tick: only the kicks the commit caused
	drain()
	if released < ce {
		t.Fatalf("after the straggler's commit woke its logger: released D = %d, want ≥ its epoch %d", released, ce)
	}
	if demand() == before {
		t.Error("the straggler's epoch closed without a demand advance")
	}
}
