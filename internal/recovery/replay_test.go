package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"silo/internal/core"
	"silo/internal/ledger"
	"silo/internal/tid"
	"silo/internal/wal"
)

// waitDurable blocks until every commit so far is durable (D has reached
// the maximum commit epoch across workers).
func waitDurable(t *testing.T, s *core.Store, m *wal.Manager) {
	t.Helper()
	var target uint64
	for w := 0; w < s.Workers(); w++ {
		if e := tid.Word(s.Worker(w).LastCommitTID()).Epoch(); e > target {
			target = e
		}
	}
	durable := make(chan struct{})
	go func() {
		m.WaitDurable(target)
		close(durable)
	}()
	select {
	case <-durable:
	case <-time.After(10 * time.Second):
		t.Fatalf("durable epoch stuck at %d want %d", m.DurableEpoch(), target)
	}
}

// TestParallelRecoveryEquivalence is the acceptance test for the parallel
// path: a concurrent workload with a partitioned checkpoint taken mid-run
// (while writers commit) must recover to the same state through the
// sequential reference (sequentialRecover, log only) and the parallel path
// at 1, 2, 3, 4 and 8 workers. It runs on two log layouts: two loggers
// rotating small segments, and the one segment one logger writes — plain
// and compressed — which recovery checks in ranges and decodes in pieces,
// with deflated frames on both sides of the cuts.
func TestParallelRecoveryEquivalence(t *testing.T) {
	for _, layout := range []struct {
		name string
		cfg  wal.Config
	}{
		{"two-loggers-rotating", wal.Config{Loggers: 2, SegmentBytes: 8 << 10}},
		{"one-segment", wal.Config{Loggers: 1}},
		{"one-segment-compressed", wal.Config{Loggers: 1, Compress: true}},
	} {
		t.Run(layout.name, func(t *testing.T) { testParallelRecoveryEquivalence(t, layout.cfg) })
	}
}

func testParallelRecoveryEquivalence(t *testing.T, cfg wal.Config) {
	const workers = 4
	const rounds = 150
	dir := t.TempDir()
	s, cat := catalogStore(t, fastOpts(workers))
	cfg.Dir, cfg.PollInterval = dir, time.Millisecond
	m, err := wal.Attach(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(func() { m.Stop(); s.Close() }) // safe double-stop on failure paths
	tbls := create(t, cat, "acct", "audit")
	acct, audit := tbls[0], tbls[1]

	var wg sync.WaitGroup
	var ckptRes CheckpointResult
	var ckptErr error
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			for r := 0; r < rounds; r++ {
				i := wid*rounds + r
				if err := w.Run(func(tx *core.Tx) error {
					if err := tx.Insert(acct, binKey(i), []byte(fmt.Sprintf("w%d-r%d", wid, r))); err != nil {
						return err
					}
					if r%3 == 0 {
						// Churn a shared audit key so updates and deletes
						// cross the checkpoint boundary.
						k := binKey(r % 16)
						v := []byte(fmt.Sprintf("u%d", i))
						if err := tx.Insert(audit, k, v); err == core.ErrKeyExists {
							if err := tx.Put(audit, k, v); err != nil {
								return err
							}
						} else if err != nil {
							return err
						}
					}
					if r%7 == 0 && r > 0 {
						if err := tx.Delete(acct, binKey(wid*rounds+r-1)); err != nil && err != core.ErrNotFound {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Errorf("worker %d: %v", wid, err)
					return
				}
				if wid == 0 && r == rounds/2 {
					// Partitioned checkpoint concurrent with the writers,
					// once a snapshot epoch covering the early rounds
					// exists.
					for s.Epochs().SnapshotGlobal() < 4 {
						m.WaitDurable(m.DurableEpoch() + 1)
					}
					ckptRes, ckptErr = WriteCheckpoint(nil, s, s.Maintenance(), dir, 4)
				}
			}
		}(wid)
	}
	wg.Wait()
	if ckptErr != nil {
		t.Fatalf("concurrent checkpoint: %v", ckptErr)
	}
	if ckptRes.Epoch == 0 || ckptRes.Rows == 0 {
		t.Fatalf("concurrent checkpoint wrote nothing: %+v", ckptRes)
	}
	waitDurable(t, s, m)
	m.Stop()

	want := [2]map[string]string{dump(t, s, acct), dump(t, s, audit)}
	s.Close()

	// The layout must be what it claims: rotated segments, or the test is
	// not exercising grouped durable bounds; or the one segment.
	infos, err := wal.ListLogFiles(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	maxSeq := uint64(0)
	for _, fi := range infos {
		if fi.Seq > maxSeq {
			maxSeq = fi.Seq
		}
	}
	if cfg.SegmentBytes > 0 && maxSeq == 0 {
		t.Fatalf("no segment rotation happened across %d files", len(infos))
	}
	if cfg.Loggers == 1 && len(infos) != 1 {
		t.Fatalf("%d segments, want the one", len(infos))
	}

	check := func(label string, s2 *core.Store, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got := [2]map[string]string{dump(t, s2, s2.Table("acct")), dump(t, s2, s2.Table("audit"))}
		for ti := range want {
			if len(got[ti]) != len(want[ti]) {
				t.Fatalf("%s: table %d has %d keys, want %d", label, ti, len(got[ti]), len(want[ti]))
			}
			for k, v := range want[ti] {
				if got[ti][k] != v {
					t.Fatalf("%s: table %d key %x = %q, want %q", label, ti, k, got[ti][k], v)
				}
			}
		}
	}

	ref, _ := catalogStore(t, manualOpts(), "acct", "audit")
	_, err = sequentialRecover(ref, dir)
	check("sequentialRecover", ref, err)
	var res1, res4 Result
	for _, w := range []int{1, 2, 3, 4, 8} {
		s2, res, err := recoverDir(t, dir, Options{Workers: w})
		check(fmt.Sprintf("recovery.Recover workers=%d", w), s2, err)
		if w > 1 && res.LogPieces < 2 {
			t.Errorf("workers=%d: the log was decoded in %d piece", w, res.LogPieces)
		}
		switch w {
		case 1:
			res1 = res
		case 4:
			res4 = res
		}
	}
	if res4.CheckpointEpoch != ckptRes.Epoch {
		t.Errorf("parallel recovery used checkpoint %d, want %d", res4.CheckpointEpoch, ckptRes.Epoch)
	}
	if res4.TxnsBelowCheckpoint == 0 {
		t.Error("no transactions were below the checkpoint — checkpoint did not save replay work")
	}
	if res1.TxnsApplied != res4.TxnsApplied || res1.TxnsSkipped != res4.TxnsSkipped {
		t.Errorf("worker counts diverge: 1-worker applied %d skipped %d vs 4-worker applied %d skipped %d",
			res1.TxnsApplied, res1.TxnsSkipped, res4.TxnsApplied, res4.TxnsSkipped)
	}
}

// TestReplayCrossLoggerDeleteOrder is the regression test for the
// delete-resurrection bug: with per-worker loggers, a delete can sit in an
// earlier-read log file than the insert it supersedes (file order is not
// TID order). The delete must win on its TID however the two arrive, so
// that the older insert cannot resurrect the key.
func TestReplayCrossLoggerDeleteOrder(t *testing.T) {
	dir := t.TempDir()
	s, cat := catalogStore(t, fastOpts(2))
	m, err := wal.Attach(s, wal.Config{Dir: dir, Loggers: 2, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(func() { m.Stop(); s.Close() })
	tbl := create(t, cat, "t")[0]

	// Worker 1 (→ logger 1, log.1) inserts; worker 0 (→ logger 0, log.0)
	// then deletes K and overwrites L: the delete and the overwrite sit in
	// the file that sorts before the one holding the inserts they
	// supersede.
	k, l := []byte("k"), []byte("l")
	if err := s.Worker(1).Run(func(tx *core.Tx) error {
		if err := tx.Insert(tbl, k, []byte("k-old")); err != nil {
			return err
		}
		return tx.Insert(tbl, l, []byte("l-old"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Worker(0).Run(func(tx *core.Tx) error {
		if err := tx.Delete(tbl, k); err != nil {
			return err
		}
		return tx.Put(tbl, l, []byte("l-new"))
	}); err != nil {
		t.Fatal(err)
	}
	waitDurable(t, s, m)
	m.Stop()
	s.Close()

	for _, workers := range []int{1, 4} {
		s2, _, err := recoverDir(t, dir, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tbl2 := s2.Table("t")
		if err := s2.Worker(0).Run(func(tx *core.Tx) error {
			if _, err := tx.Get(tbl2, k); err != core.ErrNotFound {
				t.Errorf("workers=%d: deleted key resurrected (err=%v)", workers, err)
			}
			v, err := tx.Get(tbl2, l)
			if err != nil || string(v) != "l-new" {
				t.Errorf("workers=%d: l=%q err=%v, want l-new", workers, v, err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointEpochBoundaryReplay pins the TID boundary between a
// checkpoint image and log replay. A checkpoint taken at snapshot epoch CE
// holds exactly the versions with epoch < CE (snapshot visibility is
// strict), and commits with epoch == CE can land before the checkpoint is
// even possible (CE lags the global epoch by SnapshotK). Such commits
// exist only in the log, so replay must apply them over the checkpoint
// rows: the synthetic row TID sits at the end of epoch CE−1. A row TID at
// the end of CE itself silently discards every epoch-CE transaction —
// updates revert and deletes resurrect after recovery.
func TestCheckpointEpochBoundaryReplay(t *testing.T) {
	dir := t.TempDir()
	s, cat := catalogStore(t, manualOpts())
	m, err := wal.Attach(s, wal.Config{Dir: dir, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(func() { m.Stop(); s.Close() })
	tbl := create(t, cat, "t")[0]
	w := s.Worker(0)

	// Epoch 1: two keys.
	if err := w.Run(func(tx *core.Tx) error {
		if err := tx.Insert(tbl, []byte("k"), []byte("v0")); err != nil {
			return err
		}
		return tx.Insert(tbl, []byte("doomed"), []byte("v0"))
	}); err != nil {
		t.Fatal(err)
	}
	for s.Epochs().Global() < 6 {
		s.AdvanceEpoch()
	}
	// Epoch 6: update one key, delete the other. These are the commits at
	// the future checkpoint's own epoch.
	if err := w.Run(func(tx *core.Tx) error {
		if err := tx.Put(tbl, []byte("k"), []byte("new")); err != nil {
			return err
		}
		return tx.Delete(tbl, []byte("doomed"))
	}); err != nil {
		t.Fatal(err)
	}
	s.AdvanceEpoch() // 7
	s.AdvanceEpoch() // 8: SE = snap(8−2) = 6
	ck, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 6 || ck.Rows != 3 {
		t.Fatalf("checkpoint at epoch %d with %d rows, want the epoch-1 catalog row and two rows at epoch 6", ck.Epoch, ck.Rows)
	}
	waitDurable(t, s, m)
	m.Stop()

	for _, workers := range []int{1, 4} {
		s2, res, err := recoverDir(t, dir, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tbl2 := s2.Table("t")
		if res.CheckpointEpoch != ck.Epoch || res.CheckpointRows != 3 {
			t.Fatalf("workers=%d: loaded checkpoint %d with %d rows, want %d with 3", workers, res.CheckpointEpoch, res.CheckpointRows, ck.Epoch)
		}
		if res.TxnsApplied != 1 || res.TxnsBelowCheckpoint != 2 {
			t.Errorf("workers=%d: %d transactions applied, %d below the checkpoint; want the epoch-6 one applied and the epoch-1 ones covered", workers, res.TxnsApplied, res.TxnsBelowCheckpoint)
		}
		if err := s2.Worker(0).Run(func(tx *core.Tx) error {
			v, err := tx.Get(tbl2, []byte("k"))
			if err != nil {
				return err
			}
			if string(v) != "new" {
				t.Errorf("workers=%d: recovered k=%q, want %q (epoch-CE log update lost to checkpoint row TID)", workers, v, "new")
			}
			if _, err := tx.Get(tbl2, []byte("doomed")); !errors.Is(err, core.ErrNotFound) {
				t.Errorf("workers=%d: recovered doomed key: err=%v, want ErrNotFound (epoch-CE delete resurrected)", workers, err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverMissingTableNamed: a table created behind the catalog's back
// has no catalog row, so recovery cannot create it, and its logged rows
// fail recovery with an error naming the table id.
func TestRecoverMissingTableNamed(t *testing.T) {
	dir := t.TempDir()
	s, cat := catalogStore(t, fastOpts(1))
	m, err := wal.Attach(s, wal.Config{Dir: dir, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	alpha := create(t, cat, "alpha")[0]
	beta := s.CreateTable("beta") // not through the catalog
	w := s.Worker(0)
	if err := w.Run(func(tx *core.Tx) error {
		if err := tx.Insert(alpha, []byte("a"), []byte("1")); err != nil {
			return err
		}
		return tx.Insert(beta, []byte("b"), []byte("2"))
	}); err != nil {
		t.Fatal(err)
	}
	waitDurable(t, s, m)
	m.Stop()
	s.Close()

	_, _, err = recoverDir(t, dir, Options{Workers: 2})
	if err == nil {
		t.Fatal("recovery with missing table succeeded")
	}
	for _, wantSub := range []string{"table id 2", "only 2 tables"} {
		if !contains(err.Error(), wantSub) {
			t.Errorf("error %q does not mention %q", err, wantSub)
		}
	}
}

// randomLog is a generated durability directory and what recovering it
// must produce.
type randomLog struct {
	dir                    string
	ce                     uint64
	below, inRange, beyond int // transactions by epoch: < CE, CE..D, > D
	inRangeEntries         int
	want                   [2]map[string]string // per table: the fold of every transaction ≤ D in TID order
}

// randomTables are the tables buildRandomLog writes, at ids 1 and 2.
var randomTables = []string{"a", "b"}

// checkRandomLog checks that s holds lg.want, and trees of live rows only.
func checkRandomLog(t *testing.T, label string, s *core.Store, lg randomLog) {
	t.Helper()
	for ti, name := range randomTables {
		tbl := s.Table(name)
		if got := dump(t, s, tbl); !maps.Equal(got, lg.want[ti]) {
			t.Fatalf("%s: table %s diverges from the model:\n got %q\nwant %q", label, name, got, lg.want[ti])
		}
		if tbl.Tree.Len() != len(lg.want[ti]) {
			t.Errorf("%s: table %s tree holds %d keys for %d live rows", label, name, tbl.Tree.Len(), len(lg.want[ti]))
		}
		if err := tbl.Tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: table %s: %v", label, name, err)
		}
	}
}

// buildRandomLog writes a partitioned checkpoint at some epoch CE and,
// around it, a log from three loggers: transactions below CE (the
// checkpoint already holds their effect; the one creating the tables is
// among them, so the log recovers without the checkpoint too), in CE..D,
// and beyond D, over
// keys few enough that most are written many times, by several loggers,
// with deletes and re-inserts. Within a logger the
// transactions are shuffled — replay may assume nothing about order — and
// cut into segments and frames at random; durable frames are not monotone
// (the largest is followed by small ones, as after a re-Open), and one
// segment ends in a torn frame whose transaction must not be applied.
func buildRandomLog(t *testing.T, rng *rand.Rand, kinds string, keys [][]byte) randomLog {
	const loggers = 3
	lg := randomLog{dir: t.TempDir()}
	model := [2]map[string]string{{}, {}}
	nKeys := len(keys)
	key := func(i int) []byte { return keys[i] }
	valCounter := 0
	// genTxn draws a transaction of 0–3 writes and applies it to the model.
	genTxn := func(apply bool) []wal.Entry {
		var es []wal.Entry
		seen := map[string]bool{}
		for n := rng.Intn(4); n > 0; n-- {
			ti := rng.Intn(2)
			k := key(rng.Intn(nKeys))
			if id := fmt.Sprint(ti, k); seen[id] {
				continue // one write per key per transaction, as the engine logs
			} else {
				seen[id] = true
			}
			if rng.Intn(4) == 0 {
				es = append(es, del(uint32(ti+1), k))
				if apply {
					delete(model[ti], string(k))
				}
				continue
			}
			valCounter++
			v := []byte(fmt.Sprintf("v%d-%s", valCounter, strings.Repeat("x", rng.Intn(3)*7)))
			es = append(es, put(uint32(ti+1), k, v))
			if apply {
				model[ti][string(k)] = string(v)
			}
		}
		return es
	}

	// Below the checkpoint: generate, then load the resulting state into a
	// store and checkpoint it.
	lg.below = 60 + rng.Intn(40)
	txns := []logTxn{createTxn(0, randomTables...)}
	for i := 1; i < lg.below; i++ {
		txns = append(txns, logTxn{entries: genTxn(true)})
	}
	src, _ := catalogStore(t, manualOpts(), randomTables...)
	defer src.Close()
	for ti, name := range randomTables {
		tbl := src.Table(name)
		for k, v := range model[ti] {
			if err := src.Worker(0).Run(func(tx *core.Tx) error { return tx.Insert(tbl, []byte(k), []byte(v)) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		src.AdvanceEpoch()
	}
	ck, err := WriteCheckpoint(nil, src, src.Maintenance(), lg.dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	lg.ce = ck.Epoch
	if lg.ce < 4 {
		t.Fatalf("checkpoint epoch %d leaves no room below it", lg.ce)
	}
	d := lg.ce + 3
	seq := uint64(0)
	stamp := func(t *logTxn, lo, hi uint64, i, n int) {
		seq++
		t.tid = tidAt(lo+(hi-lo+1)*uint64(i)/uint64(n), seq)
	}
	for i := range txns {
		stamp(&txns[i], lg.ce-3, lg.ce-1, i, lg.below)
	}
	lg.inRange = 150 + rng.Intn(100)
	for i := 0; i < lg.inRange; i++ {
		tx := logTxn{entries: genTxn(true)}
		stamp(&tx, lg.ce, d, i, lg.inRange)
		lg.inRangeEntries += len(tx.entries)
		txns = append(txns, tx)
	}
	lg.want = [2]map[string]string{maps.Clone(model[0]), maps.Clone(model[1])}
	lg.beyond = 20 + rng.Intn(20)
	for i := 0; i < lg.beyond; i++ {
		tx := logTxn{entries: genTxn(false)}
		stamp(&tx, d+1, d+2, i, lg.beyond)
		txns = append(txns, tx)
	}

	// Deal the transactions to the loggers and write each logger's share.
	perLogger := make([][]logTxn, loggers)
	for _, tx := range txns {
		l := rng.Intn(loggers)
		perLogger[l] = append(perLogger[l], tx)
	}
	tornLogger := rng.Intn(loggers)
	frames := 0
	for l, share := range perLogger {
		rng.Shuffle(len(share), func(i, j int) { share[i], share[j] = share[j], share[i] })
		// This logger's bound: D for logger 0 (which makes it the global
		// minimum), at least D for the others.
		dl := d
		if l > 0 {
			dl += uint64(rng.Intn(3))
		}
		nseg := 1 + rng.Intn(3)
		boundSeg := rng.Intn(nseg) // the segment holding the largest durable frame
		for s := 0; s < nseg; s++ {
			var data []byte
			part := share[len(share)*s/nseg : len(share)*(s+1)/nseg]
			for len(part) > 0 {
				n := min(1+rng.Intn(5), len(part))
				data = appendBufferFrame(data, part[:n], kinds[frames%len(kinds)])
				frames++
				part = part[n:]
				if rng.Intn(2) == 0 {
					data = appendDurableFrame(data, uint64(1+rng.Intn(int(lg.ce))))
				}
			}
			if s == boundSeg {
				data = appendDurableFrame(data, dl)
			}
			// What a process that opened this directory, ticked, and died
			// before recovering leaves behind.
			data = appendDurableFrame(data, 1)
			if l == tornLogger && s == nseg-1 {
				seq++
				torn := appendBufferFrame(nil, []logTxn{{tid: tidAt(d, seq), entries: []wal.Entry{
					put(1, key(0), []byte("torn")), put(2, key(1), []byte("torn"))}}}, kinds[0])
				data = append(data, torn[:len(torn)-1-rng.Intn(len(torn)-10)]...)
			}
			writeSegment(t, lg.dir, l, uint64(s), data)
		}
	}
	return lg
}

// TestReplayEquivalenceRandomLogs is the property test of the replay
// pipeline: on generated logs (see buildRandomLog) of buffer frames, of
// deflated frames, and of both kinds alternating within every segment,
// the coalescing replay at every worker count, the sequential reference
// sequentialRecover (which replays the whole log, in TID order, onto an empty
// store) and the generator's own model all agree on the recovered rows;
// the transaction counters match the generated mix exactly; every in-range
// entry is accounted for as installed, superseded or a dropped delete; and
// the trees hold live rows only.
func TestReplayEquivalenceRandomLogs(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		kinds := []string{"C", "BC", "B"}[seed%3]
		t.Run(fmt.Sprintf("seed=%d,frames=%s", seed, kinds), func(t *testing.T) {
			lg := buildRandomLog(t, rand.New(rand.NewSource(seed)), kinds, binKeys(40))
			ref, _ := catalogStore(t, manualOpts(), randomTables...)
			rres, err := sequentialRecover(ref, lg.dir)
			if err != nil {
				t.Fatal(err)
			}
			checkRandomLog(t, "sequentialRecover", ref, lg)
			if rres.TxnsApplied != lg.below+lg.inRange || rres.TxnsSkipped != lg.beyond {
				t.Errorf("sequentialRecover applied %d skipped %d, want %d and %d", rres.TxnsApplied, rres.TxnsSkipped, lg.below+lg.inRange, lg.beyond)
			}

			for _, workers := range []int{1, 2, 3, 8} {
				label := fmt.Sprintf("workers=%d", workers)
				s, res, err := recoverDir(t, lg.dir, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkRandomLog(t, label, s, lg)
				if res.DurableEpoch != rres.DurableEpoch || res.CheckpointEpoch != lg.ce {
					t.Errorf("%s: D=%d CE=%d, want D=%d CE=%d", label, res.DurableEpoch, res.CheckpointEpoch, rres.DurableEpoch, lg.ce)
				}
				if res.TxnsApplied != lg.inRange || res.TxnsBelowCheckpoint != lg.below || res.TxnsSkipped != lg.beyond {
					t.Errorf("%s: applied %d below %d skipped %d, want %d %d %d", label,
						res.TxnsApplied, res.TxnsBelowCheckpoint, res.TxnsSkipped, lg.inRange, lg.below, lg.beyond)
				}
				if sum := res.EntriesApplied + res.EntriesSuperseded + res.DeletesDropped; sum != lg.inRangeEntries {
					t.Errorf("%s: %d installed + %d superseded + %d dropped deletes = %d, but %d in-range entries were logged", label,
						res.EntriesApplied, res.EntriesSuperseded, res.DeletesDropped, sum, lg.inRangeEntries)
				}
			}
		})
	}
}

// TestReplayLeavesNoTombstones checks that recovery builds trees of live
// rows only. Replaying entry by entry in arbitrary order had to install an
// absent record for a delete whose key it had not seen yet, and nothing
// ever collected those records; with the final version of every key known
// before anything is installed, a deleted key simply is not there. Covered:
// a key inserted and deleted within the log (the delete in the logger that
// is read first), a checkpointed row deleted by the log, and — the live
// cases around them — a delete followed by a re-insert, a checkpointed row
// overwritten, and rows only the checkpoint or only the log knows.
func TestReplayLeavesNoTombstones(t *testing.T) {
	dir := t.TempDir()
	src, _ := catalogStore(t, manualOpts(), "t")
	defer src.Close()
	for _, k := range []string{"ckpt-deleted", "ckpt-kept", "ckpt-overwritten"} {
		if err := src.Worker(0).Run(func(tx *core.Tx) error { return tx.Insert(src.Table("t"), []byte(k), []byte("from-checkpoint")) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		src.AdvanceEpoch()
	}
	ck, err := WriteCheckpoint(nil, src, src.Maintenance(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := ck.Epoch
	// Logger 0 holds the deletes, logger 1 the inserts they supersede.
	log0 := appendBufferFrame(nil, []logTxn{
		{tid: tidAt(e, 5), entries: []wal.Entry{del(1, []byte("log-deleted")), del(1, []byte("ckpt-deleted"))}},
		{tid: tidAt(e, 6), entries: []wal.Entry{del(1, []byte("log-reinserted"))}},
	}, 'B')
	log1 := appendBufferFrame(nil, []logTxn{
		{tid: tidAt(e, 1), entries: []wal.Entry{put(1, []byte("log-deleted"), []byte("doomed")), put(1, []byte("log-kept"), []byte("from-log"))}},
		{tid: tidAt(e, 2), entries: []wal.Entry{put(1, []byte("log-reinserted"), []byte("first"))}},
		{tid: tidAt(e, 7), entries: []wal.Entry{put(1, []byte("log-reinserted"), []byte("second")), put(1, []byte("ckpt-overwritten"), []byte("from-log"))}},
	}, 'B')
	writeSegment(t, dir, 0, 0, appendDurableFrame(log0, e))
	writeSegment(t, dir, 1, 0, appendDurableFrame(log1, e))
	want := map[string]string{
		"ckpt-kept": "from-checkpoint", "ckpt-overwritten": "from-log",
		"log-kept": "from-log", "log-reinserted": "second",
	}

	for _, workers := range []int{1, 4} {
		s, res, err := recoverDir(t, dir, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tbl := s.Table("t")
		if got := dump(t, s, tbl); !maps.Equal(got, want) {
			t.Errorf("workers=%d: recovered %v, want %v", workers, got, want)
		}
		if tbl.Tree.Len() != len(want) {
			t.Errorf("workers=%d: tree holds %d keys for %d live rows", workers, tbl.Tree.Len(), len(want))
		}
		for _, k := range []string{"log-deleted", "ckpt-deleted"} {
			if rec, _, _ := tbl.Tree.Get([]byte(k)); rec != nil {
				t.Errorf("workers=%d: deleted key %s still has a record in the tree (word %x)", workers, k, uint64(rec.Word()))
			}
			if err := s.Worker(0).Run(func(tx *core.Tx) error { _, err := tx.Get(tbl, []byte(k)); return err }); err != core.ErrNotFound {
				t.Errorf("workers=%d: Get(%s) = %v, want ErrNotFound", workers, k, err)
			}
		}
		// 4 keys installed (log-kept, log-reinserted, ckpt-overwritten, and
		// the removal of ckpt-deleted), 3 entries superseded, 1 delete with
		// nothing to delete.
		if res.EntriesApplied != 4 || res.EntriesSuperseded != 3 || res.DeletesDropped != 1 {
			t.Errorf("workers=%d: %d installed, %d superseded, %d dropped deletes; want 4, 3, 1",
				workers, res.EntriesApplied, res.EntriesSuperseded, res.DeletesDropped)
		}
	}
}

// TestRecoveredTreesArePacked checks that recovery builds every table in
// one piece: whatever order the log holds its keys in, and however a
// checkpoint's rows and the log's winners interleave, the recovered tree
// has packed leaves — every one full when the row count is a multiple of
// the fanout — and passes its invariant check. Inserting the log's winners
// one by one into split leaves left a log-only tree about 0.69 full.
func TestRecoveredTreesArePacked(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	logOnly := t.TempDir()
	{
		const n = 4096
		logs := [2][]logTxn{{createTxn(tidAt(1, n+1), "t")}}
		for i, k := range rng.Perm(n) {
			logs[i%2] = append(logs[i%2], logTxn{tid: tidAt(1, uint64(i+1)),
				entries: []wal.Entry{put(1, binKey(k), []byte("v"))}})
		}
		for l, txns := range logs {
			writeSegment(t, logOnly, l, 0, appendDurableFrame(appendBufferFrame(nil, txns, 'B'), 1))
		}
	}

	// 1 000 checkpointed rows; the log deletes 200 of them, overwrites 100
	// and inserts 400 new keys between and after them: 1 200 rows.
	mixed := t.TempDir()
	src, _ := catalogStore(t, manualOpts(), "t")
	defer src.Close()
	for i := 0; i < 1000; i++ {
		if err := src.Worker(0).Run(func(tx *core.Tx) error { return tx.Insert(src.Table("t"), binKey(4*i), []byte("ckpt")) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		src.AdvanceEpoch()
	}
	ck, err := WriteCheckpoint(nil, src, src.Maintenance(), mixed, 4)
	if err != nil {
		t.Fatal(err)
	}
	var es []wal.Entry
	for i := 0; i < 200; i++ {
		es = append(es, del(1, binKey(8*i)))
	}
	for i := 0; i < 100; i++ {
		es = append(es, put(1, binKey(8*i+4), []byte("log")))
	}
	for i := 0; i < 400; i++ {
		es = append(es, put(1, binKey(2*i+1+3000*(i%2)), []byte("log")))
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	var txns []logTxn
	for i, e := range es {
		txns = append(txns, logTxn{tid: tidAt(ck.Epoch, uint64(i+1)), entries: []wal.Entry{e}})
	}
	writeSegment(t, mixed, 0, 0, appendDurableFrame(appendBufferFrame(nil, txns, 'B'), ck.Epoch))

	for _, c := range []struct {
		name string
		dir  string
		rows int
	}{{"log-only", logOnly, 4096}, {"checkpoint+log", mixed, 1200}} {
		for _, workers := range []int{1, 2, 4} {
			s, _, err := recoverDir(t, c.dir, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			tree := s.Table("t").Tree
			sh := tree.Shape()
			if sh.Keys != c.rows || sh.Fill() != 1 {
				t.Errorf("%s, workers=%d: %d keys in %d leaves, fill %.3f; want %d keys, fill 1",
					c.name, workers, sh.Keys, sh.Leaves, sh.Fill(), c.rows)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Errorf("%s, workers=%d: %v", c.name, workers, err)
			}
		}
	}
}

// TestUndecodableFrameFailsRecovery: a frame whose CRC matches but whose
// payload does not decode cannot come from a torn write. Both recovery
// paths used to end the segment's walk there and carry on. D, read from
// the durable frame after it, still covered the transaction the walk never
// reached, so that transaction's writes were lost while other loggers'
// writes of its epoch were kept: not an epoch prefix. Now both fail, with
// an error naming the segment and the frame's offset in it, whether the
// frame is plain or deflated, and whether it is the second frame of the
// segment or the forty-first, past the first cut between the pieces that
// recovery's workers decode.
func TestUndecodableFrameFailsRecovery(t *testing.T) {
	for _, kind := range []byte{'B', 'C'} {
		t.Run(string(kind), func(t *testing.T) {
			for _, before := range []int{1, 40} {
				t.Run(fmt.Sprintf("after-%d", before), func(t *testing.T) {
					dir := t.TempDir()
					bad := txnPayload([]logTxn{{tid: tidAt(2, 2), entries: []wal.Entry{put(1, []byte("b"), []byte("2"))}}})
					binary.LittleEndian.PutUint32(bad[8:], 2) // claims two entries, holds one
					seg := appendBufferFrame(nil, []logTxn{createTxn(tidAt(1, 1), "t")}, kind)
					for i := 0; i < before; i++ {
						seg = appendBufferFrame(seg, []logTxn{{tid: tidAt(2, 1), entries: []wal.Entry{put(1, []byte("a"), []byte("1"))}}}, kind)
					}
					off := len(seg)
					seg = appendFrame(seg, bad, kind)
					seg = appendBufferFrame(seg, []logTxn{{tid: tidAt(2, 3), entries: []wal.Entry{put(1, []byte("c"), []byte("3"))}}}, kind)
					writeSegment(t, dir, 0, 0, appendDurableFrame(seg, 2))
					path := filepath.Join(dir, wal.SegmentName(0, 0))

					type run struct {
						name string
						run  func() error
					}
					runs := []run{{"sequentialRecover", func() error {
						s, _ := catalogStore(t, manualOpts(), "t")
						_, err := sequentialRecover(s, dir)
						return err
					}}}
					for _, workers := range []int{1, 2, 3, 8} {
						runs = append(runs, run{fmt.Sprintf("recovery.Recover workers=%d", workers),
							func() error { _, _, err := recoverDir(t, dir, Options{Workers: workers}); return err }})
					}
					for _, r := range runs {
						err := r.run()
						if err == nil || !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), path) ||
							!strings.Contains(err.Error(), fmt.Sprintf("offset %d", off)) {
							t.Errorf("%s: error %v, want ErrCorrupt naming %s and offset %d", r.name, err, path, off)
						}
					}
				})
			}
		})
	}
}

// TestOneSegmentDecodesOnEveryWorker: recovery is as wide as its workers,
// not as the log's file count. A log that is one segment of 64 frames of
// equal size, as one hot logger writes it, is decoded by exactly Workers
// pieces, since pieces are cut by bytes; the two-segment case gets one
// piece more at most. (A small first frame creates the table.)
func TestOneSegmentDecodesOnEveryWorker(t *testing.T) {
	seg := appendBufferFrame(nil, []logTxn{createTxn(tidAt(1, 1025), "t")}, 'B')
	for f := 0; f < 64; f++ {
		var txns []logTxn
		for i := 16 * f; i < 16*(f+1); i++ {
			txns = append(txns, logTxn{tid: tidAt(1, uint64(i+1)), entries: []wal.Entry{put(1, binKey(i), make([]byte, 32))}})
		}
		seg = appendBufferFrame(seg, txns, 'B')
	}
	seg = appendDurableFrame(seg, 1)
	one, two := t.TempDir(), t.TempDir()
	writeSegment(t, one, 0, 0, seg)
	writeSegment(t, two, 0, 0, seg)
	writeSegment(t, two, 1, 0, appendDurableFrame(nil, 1))
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, dir := range []string{one, two} {
			s, res, err := recoverDir(t, dir, Options{Workers: workers})
			if err != nil || res.TxnsApplied != 1025 || s.Table("t").Tree.Len() != 1024 {
				t.Fatalf("workers=%d: recovered %d transactions (err %v), want 1025: the table's and 1024 rows", workers, res.TxnsApplied, err)
			}
			if max := workers + res.LogFiles - 1; res.LogPieces < workers || res.LogPieces > max {
				t.Errorf("workers=%d, %d segments: decoded in %d pieces, want %d to %d", workers, res.LogFiles, res.LogPieces, workers, max)
			}
			if dir == one && res.LogPieces != workers {
				t.Errorf("workers=%d: one segment decoded in %d pieces, want %d", workers, res.LogPieces, workers)
			}
		}
	}
}

// TestReplayAllocatesPerWinnerNotPerEntry checks supersededEntryAllocs
// against its ledger row's bound (TestLedger prints the row beside the
// rest of recovery's counts).
func TestReplayAllocatesPerWinnerNotPerEntry(t *testing.T) {
	ledger.Check(t, supersededEntryRow(t))
}

// TestRecoveryAllocatesPerSpanNotPerRow checks extraRowAllocs on a
// checkpoint and on a log of inserts against their ledger rows' bounds.
func TestRecoveryAllocatesPerSpanNotPerRow(t *testing.T) {
	ledger.Check(t, extraRowRows(t)...)
}

// supersededEntryAllocs is the allocation shape of pass 2: decoding and
// routing allocate nothing per entry (batches are recycled, keys and values
// alias the segment buffer), so two logs that write the same 200 keys —
// one ten times as often — differ by a handful of allocations, not by a
// multiple of the extra entries. It returns the extra allocations per
// extra entry. The comparison of two whole Recover calls cancels what they
// share: the store, the goroutines, the winners' records.
func supersededEntryAllocs(t *testing.T) float64 {
	const keys = 200
	build := func(entries int) string {
		dir := t.TempDir()
		data := appendBufferFrame(nil, []logTxn{createTxn(tidAt(1, uint64(entries+1)), "t")}, 'B')
		var frame []logTxn
		for i := 0; i < entries; i++ {
			frame = append(frame, logTxn{tid: tidAt(1, uint64(i+1)), entries: []wal.Entry{put(1, binKey(i%keys), make([]byte, 64))}})
			if len(frame) == 100 {
				data = appendBufferFrame(data, frame, 'B')
				frame = frame[:0]
			}
		}
		writeSegment(t, dir, 0, 0, appendDurableFrame(data, 1))
		return dir
	}
	allocs := func(dir string, entries int) float64 {
		return testing.AllocsPerRun(5, func() {
			// The catalog's one row is an entry like the others.
			_, res, err := recoverDir(t, dir, Options{Workers: 2})
			if err != nil || res.EntriesApplied != keys+1 || res.EntriesSuperseded != entries-keys {
				t.Fatalf("recovered %d keys, %d entries superseded, err %v", res.EntriesApplied, res.EntriesSuperseded, err)
			}
		})
	}
	const small, large = 4_000, 40_000
	a, b := allocs(build(small), small), allocs(build(large), large)
	return (b - a) / (large - small)
}

// extraRowAllocs is the allocation shape of the rows recovery makes: a
// span's records are one slice and its values' buffers come from shared
// chunks, checkpoint rows are staged as offsets, and log entries travel as
// items, so recovering ten times the rows costs a handful more allocations
// — chunks — not a multiple of the extra rows. It recovers a directory
// holding only a checkpoint (checkpoint set) or only a log of inserts, of
// 5 000 and of 50 000 rows, and returns the extra allocations per extra
// row.
func extraRowAllocs(t *testing.T, checkpoint bool) float64 {
	val := make([]byte, 100)
	checkpointOnly := func(n int) string {
		dir := t.TempDir()
		src, _ := catalogStore(t, manualOpts(), "t")
		defer src.Close()
		for lo := 0; lo < n; lo += 500 {
			if err := src.Worker(0).Run(func(tx *core.Tx) error {
				for i := lo; i < min(lo+500, n); i++ {
					if err := tx.Insert(src.Table("t"), benchKey(i), val); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			src.AdvanceEpoch()
		}
		if _, err := WriteCheckpoint(nil, src, src.Maintenance(), dir, 4); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	insertOnly := func(n int) string {
		dir := t.TempDir()
		seg := appendBufferFrame(nil, []logTxn{createTxn(tidAt(1, uint64(n+1)), "t")}, 'B')
		var frame []logTxn
		for i := 0; i < n; i++ {
			frame = append(frame, logTxn{tid: tidAt(1, uint64(i+1)), entries: []wal.Entry{put(1, benchKey(i), val)}})
			if len(frame) == 100 || i == n-1 {
				seg, frame = appendBufferFrame(seg, frame, 'B'), frame[:0]
			}
		}
		writeSegment(t, dir, 0, 0, appendDurableFrame(seg, 1))
		return dir
	}
	build := insertOnly
	if checkpoint {
		build = checkpointOnly
	}
	allocs := func(n int) float64 {
		dir := build(n)
		return testing.AllocsPerRun(5, func() {
			s, _, err := recoverDir(t, dir, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Table("t").Tree.Len(); got != n {
				t.Fatalf("recovered %d rows, want %d", got, n)
			}
		})
	}
	const small, large = 5_000, 50_000
	return (allocs(large) - allocs(small)) / (large - small)
}
