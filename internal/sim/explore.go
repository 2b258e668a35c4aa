package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"silo"
	"silo/internal/catalog"
	"silo/internal/core"
	"silo/internal/obs"
	"silo/internal/recovery"
	"silo/internal/tid"
	ftrace "silo/internal/trace"
)

// Result summarizes one exploration, successful or not. Trace is the full
// deterministic op history: running the same seed again produces the same
// trace byte for byte, which is what makes any failure replayable.
type Result struct {
	Seed    int64
	Trace   string
	Crashed bool
	Commits int
	// FSHash fingerprints the disk image handed to recovery (after the
	// crash or clean shutdown, before any recovery runs).
	FSHash uint64
	// DurableEpoch and CheckpointEpoch are what recovery reported.
	DurableEpoch    uint64
	CheckpointEpoch uint64
	// ObsCounters and ObsRecovered are canonical binary encodings of the
	// deterministic metric samples — counters and gauges, with every
	// wall-clock-valued series (timing histograms, _ns and _per_sec
	// gauges) dropped. ObsCounters is the engine's snapshot just before
	// shutdown or crash; ObsRecovered is the reopened engine's snapshot
	// right after recovery, replay counters included. Under the sim clock
	// all background activity is synchronous, so two runs of the same
	// seed must produce both byte for byte.
	ObsCounters  []byte
	ObsRecovered []byte
	// FlightBinary and FlightRecovered are the canonical 32-byte-per-event
	// encodings of the flight recorder's merged dumps, captured at the
	// same two points as the metric fingerprints. Event timestamps come
	// from the sim clock and the dump's merge order is a pure function of
	// the seeded history, so two runs of the same seed must produce both
	// byte for byte — any divergence means nondeterminism leaked into the
	// recorder (or the engine paths that feed it).
	FlightBinary    []byte
	FlightRecovered []byte
}

// commitRec tracks one acknowledged commit for the exact-state oracle.
type commitRec struct {
	tid   uint64
	table string
	key   string
	val   string
	del   bool
}

// Explore runs one seeded history — commits, epoch and checkpoint ticks,
// DDL, then a crash or clean shutdown — recovers the surviving disk image,
// and checks every oracle. A nil error means all oracles held; a non-nil
// error describes the violation, and the Result's trace replays it.
func Explore(seed int64) (Result, error) {
	rng := rand.New(rand.NewSource(seed))
	res := Result{Seed: seed}
	var trace strings.Builder
	tracef := func(format string, args ...any) {
		fmt.Fprintf(&trace, format, args...)
		trace.WriteByte('\n')
	}
	defer func() { res.Trace = trace.String() }()

	const dir = "db"
	const workers = 2
	fs := NewFS()
	clock := NewClock()

	segBytes := int64(0)
	if rng.Intn(2) == 0 {
		segBytes = int64(256 + rng.Intn(512))
	}
	ckptEvery := time.Duration(0)
	if rng.Intn(2) == 0 {
		ckptEvery = 20 * time.Millisecond
	}
	loggers := 1 + rng.Intn(2)
	tracef("config loggers=%d segbytes=%d ckpt=%v", loggers, segBytes, ckptEvery)

	open := func(f *FS, c *Clock) (*silo.DB, error) {
		return silo.Open(silo.Options{
			Workers:       workers,
			EpochInterval: 10 * time.Millisecond,
			SnapshotK:     2,
			Clock:         c,
			Durability: &silo.DurabilityOptions{
				Dir:                  dir,
				Loggers:              loggers,
				Sync:                 true,
				SegmentBytes:         segBytes,
				CheckpointInterval:   ckptEvery,
				CheckpointPartitions: 2,
				RecoveryWorkers:      4,
				FS:                   f,
			},
		})
	}

	db, err := open(fs, clock)
	if err != nil {
		return res, fmt.Errorf("sim seed %d: open: %w", seed, err)
	}

	// Schema: one or two base tables, created at epoch 1.
	nTables := 1 + rng.Intn(2)
	var tableNames []string
	tables := map[string]*silo.Table{}
	for i := 0; i < nTables; i++ {
		name := fmt.Sprintf("t%d", i)
		tableNames = append(tableNames, name)
		tables[name] = db.CreateTable(name)
		tracef("create table %s", name)
	}

	var commits []commitRec
	model := map[string]map[string]string{} // live view, for choosing deletes
	for _, n := range tableNames {
		model[n] = map[string]string{}
	}
	valCounter := 0
	liveIndexes := map[string]bool{}
	idxCounter := 0

	crash := rng.Intn(2) == 0
	steps := 40 + rng.Intn(40)
	armStep := -1
	var durableBeforeCut uint64
	cutSeen := false
	if crash {
		armStep = steps / 2 // arm at the midpoint; the cut strikes mid-write later
	}

	for step := 0; step < steps; step++ {
		if crash && !cutSeen {
			if fs.PowerCut() {
				// The cut struck during an earlier step; durableBeforeCut
				// holds the last reading taken while power was still on.
				cutSeen = true
				tracef("step %d: power lost (durable-before-cut=%d)", step, durableBeforeCut)
			} else {
				durableBeforeCut = db.DurableEpoch()
			}
		}
		if step == armStep {
			delay := int64(rng.Intn(700))
			fs.CutPowerAfter(delay)
			tracef("step %d: arm power cut after %d bytes", step, delay)
		}
		r := rng.Intn(100)
		switch {
		case r < 55: // transactional write
			tn := tableNames[rng.Intn(len(tableNames))]
			tbl := tables[tn]
			key := fmt.Sprintf("k%02d", rng.Intn(12))
			w := rng.Intn(workers)
			del := rng.Intn(4) == 0 && len(model[tn]) > 0
			var val string
			var err error
			if del {
				err = db.Run(w, func(tx *silo.Tx) error { return tx.Delete(tbl, []byte(key)) })
			} else {
				valCounter++
				val = fmt.Sprintf("v%07d", valCounter)
				err = db.Run(w, func(tx *silo.Tx) error {
					if _, gerr := tx.Get(tbl, []byte(key)); gerr == silo.ErrNotFound {
						return tx.Insert(tbl, []byte(key), []byte(val))
					} else if gerr != nil {
						return gerr
					}
					return tx.Put(tbl, []byte(key), []byte(val))
				})
			}
			if err != nil {
				tracef("step %d: w%d %s %s/%s -> %v", step, w, opName(del), tn, key, err)
				continue
			}
			ctid := db.Store().Worker(w).LastCommitTID()
			commits = append(commits, commitRec{tid: ctid, table: tn, key: key, val: val, del: del})
			if del {
				delete(model[tn], key)
			} else {
				model[tn][key] = val
			}
			tracef("step %d: w%d %s %s/%s=%s tid=%x epoch=%d", step, w, opName(del), tn, key, val, ctid, tid.Word(ctid).Epoch())
		case r < 80: // small clock step: logger passes, maybe an epoch tick
			clock.Advance(5 * time.Millisecond)
			tracef("step %d: +5ms E=%d D=%d", step, db.Epoch(), db.DurableEpoch())
		case r < 88: // large clock step: epochs, durability, checkpoint daemon
			clock.Advance(25 * time.Millisecond)
			tracef("step %d: +25ms E=%d D=%d", step, db.Epoch(), db.DurableEpoch())
		case r < 95: // create an index
			if len(liveIndexes) >= 2 {
				continue
			}
			tn := tableNames[rng.Intn(len(tableNames))]
			name := fmt.Sprintf("ix%d", idxCounter)
			idxCounter++
			segs := []silo.IndexSeg{{FromValue: true, Off: 0, Len: 4}}
			if _, err := db.CreateIndexSpec(0, tables[tn], name, false, segs); err != nil {
				return res, fmt.Errorf("sim seed %d: create index %s: %w", seed, name, err)
			}
			liveIndexes[name] = true
			tracef("step %d: create index %s on %s", step, name, tn)
		default: // drop an index
			var names []string
			for n := range liveIndexes {
				names = append(names, n)
			}
			if len(names) == 0 {
				continue
			}
			sort.Strings(names)
			name := names[rng.Intn(len(names))]
			if err := db.DropIndex(name); err != nil {
				return res, fmt.Errorf("sim seed %d: drop index %s: %w", seed, name, err)
			}
			delete(liveIndexes, name)
			tracef("step %d: drop index %s", step, name)
		}
	}
	res.Commits = len(commits)
	res.ObsCounters = counterFingerprint(db.Observe())
	res.FlightBinary = ftrace.AppendBinary(nil, db.Flight().Dump())

	var lastCommitEpoch uint64
	for _, c := range commits {
		if e := tid.Word(c.tid).Epoch(); e > lastCommitEpoch {
			lastCommitEpoch = e
		}
	}

	// End of history: crash or clean shutdown, yielding the disk image.
	var fs2 *FS
	if crash {
		res.Crashed = true
		if !fs.PowerCut() {
			// The armed cut never saw enough write traffic; strike now.
			durableBeforeCut = db.DurableEpoch()
			fs.CutPower()
		}
		fs2 = fs.Crash(rng)
		db.Close() // release the dead process's resources; the image is taken
		tracef("crash (durable-before-cut=%d)", durableBeforeCut)
	} else {
		db.Close()
		fs2 = fs.Clone()
		tracef("clean close (last commit epoch=%d)", lastCommitEpoch)
	}
	res.FSHash = fs2.Hash()
	tracef("disk image hash=%016x", res.FSHash)

	// Oracle: parallel and sequential recovery must produce identical
	// state from the identical image (read-only; runs before the
	// full-fidelity recovery below, which appends to the image's log).
	seqDump, seqRes, err := recoverDump(fs2, dir, 1)
	if err != nil {
		return res, fmt.Errorf("sim seed %d: sequential recovery: %w", seed, err)
	}
	parDump, parRes, err := recoverDump(fs2, dir, 4)
	if err != nil {
		return res, fmt.Errorf("sim seed %d: parallel recovery: %w", seed, err)
	}
	if seqDump != parDump || seqRes.DurableEpoch != parRes.DurableEpoch || seqRes.CheckpointEpoch != parRes.CheckpointEpoch {
		return res, fmt.Errorf("sim seed %d: parallel recovery diverged from sequential (D %d vs %d, CE %d vs %d)",
			seed, parRes.DurableEpoch, seqRes.DurableEpoch, parRes.CheckpointEpoch, seqRes.CheckpointEpoch)
	}

	// Full-fidelity recovery: schema reconstruction, interrupted-DDL
	// roll-forward/back, index audits.
	db2, err := open(fs2, NewClock())
	if err != nil {
		return res, fmt.Errorf("sim seed %d: reopen: %w", seed, err)
	}
	defer db2.Close()
	rres, err := db2.Recover()
	if err != nil {
		return res, fmt.Errorf("sim seed %d: recover: %w", seed, err)
	}
	res.DurableEpoch = rres.DurableEpoch
	res.CheckpointEpoch = rres.CheckpointEpoch
	res.ObsRecovered = counterFingerprint(db2.Observe())
	res.FlightRecovered = ftrace.AppendBinary(nil, db2.Flight().Dump())
	eff := rres.DurableEpoch
	if rres.CheckpointEpoch > eff {
		eff = rres.CheckpointEpoch
	}
	tracef("recovered D=%d CE=%d applied=%d skipped=%d", rres.DurableEpoch, rres.CheckpointEpoch, rres.TxnsApplied, rres.TxnsSkipped)

	// Oracle: a clean shutdown loses nothing — every acknowledged commit,
	// including the final epoch's, is at or below the recovered bound.
	// This is the oracle that catches the shutdown-drain bug.
	if !crash && eff < lastCommitEpoch {
		return res, fmt.Errorf("sim seed %d: clean shutdown lost acknowledged commits: recovered bound %d < last commit epoch %d",
			seed, eff, lastCommitEpoch)
	}

	// Oracle: a crash never loses a commit the WAL had made durable before
	// the power cut (Sync is on and fsync is honest until the cut).
	if crash && eff < durableBeforeCut {
		return res, fmt.Errorf("sim seed %d: crash lost durable commits: recovered bound %d < durable-before-cut %d",
			seed, eff, durableBeforeCut)
	}

	// Oracle: exact state — the recovered database equals the fold, in TID
	// order, of exactly the acknowledged commits with epoch ≤ the recovered
	// bound. This holds under every fault configuration: D defines the
	// recovered prefix whatever the crash destroyed.
	sort.Slice(commits, func(i, j int) bool { return commits[i].tid < commits[j].tid })
	expected := map[string]map[string]string{}
	for _, n := range tableNames {
		expected[n] = map[string]string{}
	}
	for _, c := range commits {
		if tid.Word(c.tid).Epoch() > eff {
			continue
		}
		if c.del {
			delete(expected[c.table], c.key)
		} else {
			expected[c.table][c.key] = c.val
		}
	}
	for _, n := range tableNames {
		tbl := db2.Table(n)
		if tbl == nil {
			if eff >= 1 {
				return res, fmt.Errorf("sim seed %d: table %s (created at epoch 1 ≤ bound %d) not recovered", seed, n, eff)
			}
			continue
		}
		got := map[string]string{}
		if err := db2.Run(0, func(tx *silo.Tx) error {
			return tx.Scan(tbl, []byte("k"), nil, func(k, v []byte) bool {
				got[string(k)] = string(v)
				return true
			})
		}); err != nil {
			return res, fmt.Errorf("sim seed %d: dump %s: %w", seed, n, err)
		}
		if diff := mapDiff(expected[n], got); diff != "" {
			return res, fmt.Errorf("sim seed %d: table %s diverged from the epoch-%d prefix: %s", seed, n, eff, diff)
		}
	}

	// Oracle: every recovered index passes its offline audit against the
	// recovered base table.
	for _, ix := range db2.Indexes() {
		if err := ix.VerifyEntries(); err != nil {
			return res, fmt.Errorf("sim seed %d: index %s failed verification: %w", seed, ix.Name, err)
		}
	}
	return res, nil
}

// counterFingerprint reduces a snapshot to its deterministic samples —
// counters and gauges, minus anything timing-valued — sorted and rendered
// in the canonical binary form, so two snapshots are comparable byte for
// byte. Timing histograms and the _ns/_per_sec gauges measure wall-clock
// durations, which no simulated clock makes reproducible; everything else
// (commit, abort, table, WAL, checkpoint, and replay counters) is a pure
// function of the seeded history.
func counterFingerprint(snap *silo.ObsSnapshot) []byte {
	var det obs.Snapshot
	for _, m := range snap.Samples {
		if m.Kind == obs.KindHist ||
			strings.HasSuffix(m.Name, "_ns") || strings.HasSuffix(m.Name, "_per_sec") {
			continue
		}
		det.Samples = append(det.Samples, m)
	}
	det.Sort()
	return det.AppendBinary(nil)
}

func opName(del bool) string {
	if del {
		return "del"
	}
	return "put"
}

// recoverDump runs a bare parallel-recovery pass (no FinishRecovery, so
// the disk image is never written) into a fresh engine and returns a
// canonical dump of every table.
func recoverDump(fs *FS, dir string, workers int) (string, recovery.Result, error) {
	opts := core.DefaultOptions(1)
	opts.ManualEpochs = true
	st := core.NewStore(opts)
	defer st.Close()
	cat := catalog.New(st)
	rres, err := recovery.Recover(st, dir, recovery.Options{Workers: workers, Schema: cat, FS: fs})
	if err != nil {
		return "", rres, err
	}
	var b strings.Builder
	for _, tbl := range st.Tables() {
		fmt.Fprintf(&b, "table %d %s\n", tbl.ID, tbl.Name)
		t := tbl
		if err := st.Worker(0).Run(func(tx *core.Tx) error {
			return tx.Scan(t, []byte{0x00}, nil, func(k, v []byte) bool {
				fmt.Fprintf(&b, "  %x=%x\n", k, v)
				return true
			})
		}); err != nil {
			return "", rres, err
		}
	}
	return b.String(), rres, nil
}

// mapDiff describes the first divergence between want and got ("" if none).
func mapDiff(want, got map[string]string) string {
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, wok := want[k]
		g, gok := got[k]
		switch {
		case wok && !gok:
			return fmt.Sprintf("missing %s (want %q)", k, w)
		case !wok && gok:
			return fmt.Sprintf("unexpected %s=%q", k, g)
		case w != g:
			return fmt.Sprintf("%s: got %q want %q", k, g, w)
		}
	}
	return ""
}
