package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"silo"
	"silo/internal/workload/ycsb"
)

type recoveryParams struct {
	Rows            int  `json:"rows"`
	Txns            int  `json:"logged_txns"`
	WritesPerTxn    int  `json:"writes_per_txn"`
	ValueSize       int  `json:"value_bytes"`
	Loggers         int  `json:"loggers"`
	SegmentMiB      int  `json:"segment_mib"`
	Sync            bool `json:"sync"`
	MinRepetitions  int  `json:"min_repetitions"`
	RecoveryWorkers int  `json:"recovery_workers"`
}

func recoverySizing(smoke bool, procs int) recoveryParams {
	p := recoveryParams{Rows: 100_000, Txns: 250_000, WritesPerTxn: 2, ValueSize: 100,
		Loggers: 2, SegmentMiB: 64, MinRepetitions: 5, RecoveryWorkers: procs}
	if smoke {
		p.Rows, p.Txns, p.MinRepetitions = 2000, 5000, 2
	}
	return p
}

const recoveryTable = "rows"

// recoveryOps is the op stream that fills the log: each transaction
// overwrites WritesPerTxn uniform rows with values drawn from the seed.
type recoveryOps struct {
	rng *ycsb.RNG
	p   recoveryParams
}

func newRecoveryOps(p recoveryParams, seed uint64) *recoveryOps {
	return &recoveryOps{rng: ycsb.NewRNG(callerSeed(seed, 0)), p: p}
}

// next fills keys and the values' leading words for one transaction.
func (o *recoveryOps) next(keys []uint64, stamps []uint64) {
	for i := range keys {
		keys[i] = uint64(o.rng.Intn(o.p.Rows))
		stamps[i] = o.rng.Next()
	}
}

// logImage is a log directory ready to recover, and what recovering it
// must produce.
type logImage struct {
	dir      string
	rows     int
	checksum uint64
	txns     int
	logBytes float64 // WAL bytes written per logged transaction
}

func (l *logImage) close() { os.RemoveAll(l.dir) }

// tableChecksum is order-independent: the sum of a hash of every row.
func tableChecksum(db *silo.DB) (rows int, sum uint64, err error) {
	tbl := db.Table(recoveryTable)
	if tbl == nil {
		return 0, 0, fmt.Errorf("no table %q", recoveryTable)
	}
	err = db.Run(0, func(tx *silo.Tx) error {
		rows, sum = 0, 0
		return tx.Scan(tbl, []byte{0}, nil, func(k, v []byte) bool {
			h := fnv.New64a()
			h.Write(k)
			h.Write(v)
			sum += h.Sum64()
			rows++
			return true
		})
	})
	return rows, sum, err
}

// buildLog writes the image: load, checkpoint, then the logged suffix on
// one worker, then a clean Close. Sync is off — the log is read back
// through the OS cache anyway, and fsyncs would only add set-up time. The
// short epoch lets the snapshot the checkpoint needs arrive in
// milliseconds.
func buildLog(r *run, p recoveryParams) (*logImage, error) {
	dir, err := os.MkdirTemp(r.cfg.dir, "recovery-")
	if err != nil {
		return nil, err
	}
	img := &logImage{dir: dir, txns: p.Txns}
	db, err := silo.Open(silo.Options{
		Workers:       1,
		EpochInterval: 2 * time.Millisecond,
		SnapshotK:     5,
		Durability:    &silo.DurabilityOptions{Dir: dir, Loggers: p.Loggers, SegmentBytes: int64(p.SegmentMiB) << 20, Sync: p.Sync},
	})
	if err != nil {
		img.close()
		return nil, err
	}
	fail := func(err error) (*logImage, error) {
		db.Close()
		img.close()
		return nil, err
	}
	tbl := db.CreateTable(recoveryTable)
	val := make([]byte, p.ValueSize)
	var kb []byte
	if err := loadTable(db, tbl, p.Rows, func(dst []byte, _ int) []byte { return append(dst[:0], val...) }); err != nil {
		return fail(err)
	}
	// A checkpoint is cut at a snapshot epoch; wait for one that has the
	// whole load behind it.
	loaded := db.Epoch()
	for db.Store().Epochs().SnapshotGlobal() <= loaded {
		time.Sleep(time.Millisecond)
	}
	ck, err := db.Checkpoint(0)
	if err != nil {
		return fail(fmt.Errorf("checkpoint: %w", err))
	}
	if ck.Rows < p.Rows {
		return fail(fmt.Errorf("checkpoint holds %d rows, loaded %d", ck.Rows, p.Rows))
	}

	before := db.Observe()
	ops := newRecoveryOps(p, r.cfg.seed)
	keys, stamps := make([]uint64, p.WritesPerTxn), make([]uint64, p.WritesPerTxn)
	for i := 0; i < p.Txns; i++ {
		ops.next(keys, stamps)
		err := db.Run(0, func(tx *silo.Tx) error {
			for j, k := range keys {
				kb = ycsb.Key(k, kb)
				binary.BigEndian.PutUint64(val, stamps[j])
				if err := tx.Put(tbl, kb, val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fail(fmt.Errorf("logged transaction %d: %w", i, err))
		}
	}
	if img.rows, img.checksum, err = tableChecksum(db); err != nil {
		return fail(err)
	}
	db.FlushLog(0)
	db.WaitDurable(db.LastCommitEpoch(0))
	d := obsDelta{before: before, after: db.Observe()}
	db.Close()
	img.logBytes = ratio(d.counter("silo_wal_bytes_written_total", ""), d.counter("silo_wal_txns_logged_total", ""))
	return img, nil
}

func runRecoveryReplay(r *run) error {
	p := recoverySizing(r.cfg.smoke, r.procs)
	r.params = p
	img, err := setupMedian(r, func() (*logImage, error) { return buildLog(r, p) })
	if err != nil {
		return err
	}
	defer img.close()

	// Fixed work, repeated: each repetition recovers a fresh copy of the
	// image (recovery appends to the directory it opens), at least
	// MinRepetitions times and until the measuring time is used up.
	var wall, rate, ckpt, replay, mbps []float64
	var skipped float64
	deadline := time.Now().Add(r.cfg.seconds)
	for rep := 0; rep < p.MinRepetitions || time.Now().Before(deadline); rep++ {
		dir, err := os.MkdirTemp(r.cfg.dir, "recovery-rep-")
		if err != nil {
			return err
		}
		if err := copyDir(img.dir, dir); err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("copy log image: %w", err)
		}
		// Collect the previous repetition's database now, so that its
		// garbage is not being marked while this one is being timed.
		runtime.GC()
		start := time.Now()
		db, err := openToRecover(dir, p.RecoveryWorkers, p.Loggers, int64(p.SegmentMiB)<<20)
		if err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("open: %w", err)
		}
		res, err := db.Recover()
		d := time.Since(start)
		r.span("recovery.open+recover", start, d)
		if err == nil {
			rows, sum, cerr := tableChecksum(db)
			r.check(cerr == nil && rows == img.rows && sum == img.checksum,
				"repetition %d recovered %d rows (checksum %x), image has %d (%x): %v", rep, rows, sum, img.rows, img.checksum, cerr)
			r.check(res.TxnsApplied == img.txns, "repetition %d replayed %d transactions, image logged %d", rep, res.TxnsApplied, img.txns)
			if rep == 0 && !r.cfg.trace {
				r.measureHeap() // the recovered database
			}
		}
		db.Close()
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		wall = append(wall, d.Seconds())
		rate = append(rate, float64(res.TxnsApplied)/d.Seconds())
		ckpt = append(ckpt, res.CheckpointLoad.Seconds())
		replay = append(replay, (res.LogRead + res.LogApply).Seconds())
		mbps = append(mbps, float64(res.ReplayBytesPerSec())/1e6)
		skipped = float64(res.TxnsSkipped + res.TxnsBelowCheckpoint)
	}
	r.note("repetitions", len(wall))
	r.note("recover_wall_s", wall)
	r.mark("phase_load")

	if !r.cfg.trace {
		// One recovery is this workload's request: its latency is the
		// wall time of Open+Recover, its throughput the transactions
		// replayed per second of that wall time.
		r.setN("txn_per_s", median(rate), len(rate))
		r.setN("latency_p50_us", median(wall)*1e6, len(wall))
		return nil
	}
	r.setN("replay_txn_per_s", median(rate), len(rate))
	r.setN("recover_s", median(wall), len(wall))
	r.setN("recovery.ckpt_load_s", median(ckpt), len(ckpt))
	r.setN("recovery.replay_s", median(replay), len(replay))
	r.setN("recovery.replay_mb_per_s", median(mbps), len(mbps))
	r.set("recovery.txns_skipped", skipped)
	r.set("wal.bytes_per_txn", img.logBytes)
	probeBtree(r, p.Rows, r.cfg.seed)
	return nil
}
