package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"silo"
	"silo/internal/catalog"
	"silo/internal/core"
	"silo/internal/recovery"
	"silo/internal/tid"
)

// openSimDB opens a database on a simulated disk and clock: one logger,
// one log file (no rotation), honest fsync until the test says otherwise.
func openSimDB(t *testing.T, f *FS, c *Clock) *silo.DB {
	t.Helper()
	db, err := silo.Open(silo.Options{
		Workers:       2,
		EpochInterval: 10 * time.Millisecond,
		SnapshotK:     2,
		Clock:         c,
		Durability: &silo.DurabilityOptions{
			Dir:                  "db",
			Loggers:              1,
			Sync:                 true,
			CheckpointPartitions: 2,
			RecoveryWorkers:      2,
			FS:                   f,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// mustPut upserts key=val on worker 0 and returns the commit TID.
func mustPut(t *testing.T, db *silo.DB, tbl *silo.Table, key, val string) uint64 {
	t.Helper()
	err := db.Run(0, func(tx *silo.Tx) error {
		if _, gerr := tx.Get(tbl, []byte(key)); gerr == silo.ErrNotFound {
			return tx.Insert(tbl, []byte(key), []byte(val))
		} else if gerr != nil {
			return gerr
		}
		return tx.Put(tbl, []byte(key), []byte(val))
	})
	if err != nil {
		t.Fatal(err)
	}
	return db.Store().Worker(0).LastCommitTID()
}

// TestTornManifestFallsBack writes two checkpoints, then tears the newer
// set's MANIFEST at several byte positions. Recovery must reject the torn
// set (the manifest's CRC footer is the commit point), fall back to the
// older checkpoint, and still reconstruct the identical final state from
// the untruncated log.
func TestTornManifestFallsBack(t *testing.T) {
	fs, clock := NewFS(), NewClock()
	db := openSimDB(t, fs, clock)
	tbl := db.CreateTable("t")
	for i := 0; i < 4; i++ {
		mustPut(t, db, tbl, fmt.Sprintf("k%d", i), fmt.Sprintf("a%d", i))
	}
	clock.Advance(30 * time.Millisecond)
	cr1, err := db.Checkpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 7; i++ {
		mustPut(t, db, tbl, fmt.Sprintf("k%d", i), fmt.Sprintf("b%d", i))
	}
	clock.Advance(30 * time.Millisecond)
	cr2, err := db.Checkpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if cr2.Epoch <= cr1.Epoch {
		t.Fatalf("checkpoints did not advance: %d then %d", cr1.Epoch, cr2.Epoch)
	}
	db.Close()
	img := fs.Clone()

	want, wantRes, err := recoverDump(img, "db", 2)
	if err != nil {
		t.Fatal(err)
	}
	if wantRes.CheckpointEpoch != cr2.Epoch {
		t.Fatalf("intact image recovered from checkpoint %d, want the newer %d", wantRes.CheckpointEpoch, cr2.Epoch)
	}

	manifest := fmt.Sprintf("db/checkpoint.%d/MANIFEST", cr2.Epoch)
	size, err := img.Size(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, size / 2, size - 1} {
		img2 := img.Clone()
		if err := img2.TruncateTo(manifest, n); err != nil {
			t.Fatal(err)
		}
		got, res, err := recoverDump(img2, "db", 2)
		if err != nil {
			t.Fatalf("manifest torn at %d/%d bytes: recovery failed: %v", n, size, err)
		}
		if res.CheckpointEpoch != cr1.Epoch {
			t.Fatalf("manifest torn at %d/%d bytes: recovered from checkpoint %d, want fallback to %d", n, size, res.CheckpointEpoch, cr1.Epoch)
		}
		if got != want {
			t.Fatalf("manifest torn at %d/%d bytes: recovered state diverged from the intact image", n, size)
		}
	}
}

// TestTornLogTailSweep models a partial fsync of the open log segment: the
// file survives as an arbitrary prefix. For every truncation point, from
// the full file down to zero bytes, recovery must succeed, and the
// recovered state must equal the fold of exactly the acknowledged commits
// at or below the durable bound the truncated log proves.
func TestTornLogTailSweep(t *testing.T) {
	fs, clock := NewFS(), NewClock()
	db := openSimDB(t, fs, clock)
	tbl := db.CreateTable("t")

	type rec struct {
		ctid     uint64
		key, val string
		del      bool
	}
	var commits []rec
	n := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			n++
			key, val := fmt.Sprintf("k%d", (round+i)%6), fmt.Sprintf("v%04d", n)
			commits = append(commits, rec{mustPut(t, db, tbl, key, val), key, val, false})
		}
		clock.Advance(15 * time.Millisecond)
	}
	if err := db.Run(0, func(tx *silo.Tx) error { return tx.Delete(tbl, []byte("k0")) }); err != nil {
		t.Fatal(err)
	}
	commits = append(commits, rec{db.Store().Worker(0).LastCommitTID(), "k0", "", true})
	clock.Advance(15 * time.Millisecond)
	fullD := db.DurableEpoch()
	if fullD == 0 {
		t.Fatal("history produced no durable epochs")
	}
	img0 := fs.Clone()
	db.Close()

	size, err := img0.Size("db/log.0")
	if err != nil {
		t.Fatal(err)
	}
	for cut := size; cut >= 0; cut-- {
		img := img0.Clone()
		if err := img.TruncateTo("db/log.0", cut); err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions(1)
		opts.ManualEpochs = true
		st := core.NewStore(opts)
		cat := catalog.New(st)
		rres, err := recovery.Recover(st, "db", recovery.Options{Workers: 1, Schema: cat, FS: img})
		if err != nil {
			t.Fatalf("log truncated to %d/%d bytes: recovery failed: %v", cut, size, err)
		}
		if cut == size && rres.DurableEpoch < fullD {
			t.Fatalf("intact log recovered bound %d < durable %d", rres.DurableEpoch, fullD)
		}
		expected := map[string]string{}
		for _, c := range commits {
			if tid.Word(c.ctid).Epoch() > rres.DurableEpoch {
				continue
			}
			if c.del {
				delete(expected, c.key)
			} else {
				expected[c.key] = c.val
			}
		}
		got := map[string]string{}
		if tb := st.Table("t"); tb != nil {
			if err := st.Worker(0).Run(func(tx *core.Tx) error {
				return tx.Scan(tb, []byte{0x00}, nil, func(k, v []byte) bool {
					got[string(k)] = string(v)
					return true
				})
			}); err != nil {
				t.Fatal(err)
			}
		} else if len(expected) > 0 {
			t.Fatalf("log truncated to %d/%d bytes: table missing but bound %d promises %d rows", cut, size, rres.DurableEpoch, len(expected))
		}
		if diff := mapDiff(expected, got); diff != "" {
			t.Fatalf("log truncated to %d/%d bytes (bound %d): %s", cut, size, rres.DurableEpoch, diff)
		}
		st.Close()
	}
}

// TestDDLTruncationSweep crashes a history at every byte position of its
// log — in particular between an index's create and ready catalog records
// — and runs full-fidelity recovery each time. Recovery must never error,
// every surviving index must pass its offline audit, and the sweep must
// actually land inside the create/ready window at least once (proven by a
// roll-forward or roll-back).
func TestDDLTruncationSweep(t *testing.T) {
	fs, clock := NewFS(), NewClock()
	db := openSimDB(t, fs, clock)
	tbl := db.CreateTable("t")
	for i := 0; i < 4; i++ {
		mustPut(t, db, tbl, fmt.Sprintf("k%d", i), fmt.Sprintf("v%04d", i))
	}
	clock.Advance(30 * time.Millisecond)
	if _, err := db.CreateIndexSpec(0, tbl, "ix", false, []silo.IndexSeg{{FromValue: true, Off: 0, Len: 4}}); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		mustPut(t, db, tbl, fmt.Sprintf("k%d", i), fmt.Sprintf("v%04d", i))
	}
	clock.Advance(30 * time.Millisecond)
	db.Close()
	img0 := fs.Clone()

	size, err := img0.Size("db/log.0")
	if err != nil {
		t.Fatal(err)
	}
	interrupted := 0
	for cut := 0; cut <= size; cut++ {
		img := img0.Clone()
		if err := img.TruncateTo("db/log.0", cut); err != nil {
			t.Fatal(err)
		}
		db2 := openSimDB(t, img, NewClock())
		rres, err := db2.Recover()
		if err != nil {
			t.Fatalf("log truncated to %d/%d bytes: recover: %v", cut, size, err)
		}
		interrupted += len(rres.IndexesRolledForward) + len(rres.IndexesRolledBack)
		for _, ix := range db2.Indexes() {
			if verr := ix.VerifyEntries(); verr != nil {
				t.Fatalf("log truncated to %d/%d bytes: index %s failed its audit: %v", cut, size, ix.Name, verr)
			}
		}
		db2.Close()
	}
	if interrupted == 0 {
		t.Fatal("the byte sweep never landed between the index's create and ready records")
	}
}

// TestDurableBoundSurvivesReopenCrash pins the history Open → tick → power
// cut → Open → tick. Open recovers before its loggers start, so the doomed
// process's tick appends durable frames above the recovered bound; earlier
// builds started the loggers first, and their ticks appended frames from a
// fresh epoch counter (d = 1, 2, …) behind the frames of the run being
// recovered. Either way the log must recover in full after the power cut.
// (Reading each segment's last frame made D = 1 for the earlier builds,
// and recovery silently discarded every transaction.)
func TestDurableBoundSurvivesReopenCrash(t *testing.T) {
	fs, clock := NewFS(), NewClock()
	db := openSimDB(t, fs, clock)
	tbl := db.CreateTable("t")
	want := map[string]string{}
	for round := 0; round < 4; round++ {
		for i := 0; i < 5; i++ {
			k, v := fmt.Sprintf("k%d", i+round), fmt.Sprintf("r%d-%d", round, i)
			mustPut(t, db, tbl, k, v)
			want[k] = v
		}
		clock.Advance(30 * time.Millisecond)
	}
	bound := db.DurableEpoch()
	db.Close()
	img := fs.Clone()

	// The process that never got to recover: it ticks, its loggers fsync
	// their small durable frames, and the power goes.
	clock2 := NewClock()
	doomed := openSimDB(t, img, clock2)
	clock2.Advance(30 * time.Millisecond)
	img.CutPower()
	crashed := img.Crash(rand.New(rand.NewSource(1)))
	doomed.Close()

	clock3 := NewClock()
	db3 := openSimDB(t, crashed, clock3)
	defer db3.Close()
	clock3.Advance(30 * time.Millisecond)
	res, err := db3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if res.DurableEpoch < bound {
		t.Fatalf("recovered D=%d, but the first run had made epoch %d durable before it closed", res.DurableEpoch, bound)
	}
	if res.TxnsSkipped != 0 {
		t.Errorf("%d transactions skipped as beyond D=%d; a clean shutdown leaves none", res.TxnsSkipped, res.DurableEpoch)
	}
	for k, v := range want {
		if got, ok := simGet(t, db3, "t", k); !ok || got != v {
			t.Errorf("%s = %q (found %v), want %q", k, got, ok, v)
		}
	}
}
