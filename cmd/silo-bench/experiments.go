package main

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"silo"
	"silo/internal/core"
	"silo/internal/kvstore"
	"silo/internal/obs"
	"silo/internal/partition"
	"silo/internal/sim"
	"silo/internal/vfs"
	"silo/internal/workload/tpcc"
	"silo/internal/workload/ycsb"
)

func (c config) scale(warehouses int) tpcc.Scale {
	if c.full {
		return tpcc.FullScale(warehouses)
	}
	return tpcc.DefaultScale(warehouses)
}

// newDB opens the database of one experiment point. Every experiment goes
// through here — silo.Open is the one way a store is assembled, so what is
// measured is what applications run.
func newDB(workers int, mutate func(*silo.Options)) *silo.DB {
	opts := silo.Options{Workers: workers}
	if mutate != nil {
		mutate(&opts)
	}
	db, err := silo.Open(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// newDurableDB is newDB with logging into a fresh directory logDir/name,
// configured by -loggers and -sync; d carries the point's own settings (FS,
// TIDOnly, Compress). cleanup closes the database and removes the directory.
func newDurableDB(cfg config, workers int, name string, d silo.DurabilityOptions) (db *silo.DB, cleanup func()) {
	d.Dir = filepath.Join(cfg.logDir, name)
	d.Loggers = cfg.loggers
	d.Sync = cfg.sync
	db = newDB(workers, func(o *silo.Options) { o.Durability = &d })
	return db, func() {
		db.Close()
		vfs.DefaultFS(d.FS).RemoveAll(d.Dir)
	}
}

// retry runs attempt until it does not lose a conflict, counting the
// aborts and then the one completed operation.
func retry(ops, aborts *atomic.Uint64, attempt func() error) {
	for attempt() == core.ErrConflict {
		aborts.Add(1)
	}
	ops.Add(1)
}

// ---- Figure 4: overhead of small transactions (YCSB variant) ----

func fig4(cfg config) {
	header("Figure 4: YCSB-A variant — Key-Value vs MemSilo vs MemSilo+GlobalTID")
	wcfg := ycsb.DefaultConfig(cfg.keys)
	fmt.Printf("keys=%d value=%dB read/rmw=%d/%d\n", wcfg.Keys, wcfg.ValueSize, wcfg.ReadPct, 100-wcfg.ReadPct)

	for _, workers := range cfg.workers {
		// Key-Value: the bare tree.
		kv := kvstore.New()
		ycsb.LoadKV(kv, wcfg)
		r := median(cfg.runs, func() result {
			return run("Key-Value", workers, cfg.warmup, cfg.seconds,
				func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
					gen := ycsb.NewGenerator(wcfg, uint64(wid)+1)
					var kb, vb []byte
					for !stop.Load() {
						kb, vb = ycsb.RunKVOp(kv, gen.Next(), kb, vb)
						ops.Add(1)
					}
				})
		})
		fmt.Println(r)

		for _, sys := range []struct {
			name      string
			globalTID bool
		}{{"MemSilo", false}, {"MemSilo+GlobalTID", true}} {
			db := newDB(workers, func(o *silo.Options) { o.GlobalTID = sys.globalTID })
			tbl := ycsb.LoadSilo(db, wcfg)
			r := median(cfg.runs, func() result {
				return run(sys.name, workers, cfg.warmup, cfg.seconds, siloWorker(db, tbl, wcfg, ycsb.Scans{}, nil))
			})
			fmt.Println(r)
			db.Close()
		}
	}
}

// ---- Figures 5 & 6: TPC-C throughput and per-core throughput ----

// tpccRun drives one TPC-C client per worker, home warehouse
// wid%warehouses+1; next picks each transaction's type. A durable database
// needs nothing more: its loggers collect the workers' buffers themselves.
// t may be either layout: Load's shared tables or LoadSplit's.
func tpccRun(name string, db *silo.DB, t *tpcc.Tables, sc tpcc.Scale, workers int,
	ccfg tpcc.ClientConfig, cfg config, next func(*tpcc.Client) tpcc.TxnType) result {
	return run(name, workers, cfg.warmup, cfg.seconds,
		func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
			home := wid%sc.Warehouses + 1
			cl := tpcc.NewClient(t, sc, db.Store().Worker(wid), home, ccfg, tpccSeed(wid))
			for !stop.Load() {
				tt := next(cl)
				retry(ops, aborts, func() error { return cl.RunOnce(tt) })
			}
		})
}

// partRun is tpccRun's new-order-only run on a Partitioned-Store: the
// same homes and seeds, so it places the same orders.
func partRun(name string, ps *partition.Store, sc tpcc.Scale, workers int, ccfg tpcc.ClientConfig, cfg config) result {
	return run(name, workers, cfg.warmup, cfg.seconds,
		func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
			cl := tpcc.NewPartClient(ps, sc, wid%sc.Warehouses+1, ccfg, tpccSeed(wid))
			for !stop.Load() {
				cl.NewOrder()
				ops.Add(1)
			}
		})
}

// tpccSeed is worker wid's client seed.
func tpccSeed(wid int) uint64 { return uint64(wid)*7919 + 3 }

// The transaction mixes of the TPC-C experiments.
var standardMix = (*tpcc.Client).NextType

func newOrderOnly(*tpcc.Client) tpcc.TxnType { return tpcc.TxnNewOrder }

func fig5and6(cfg config) {
	header("Figures 5 & 6: TPC-C throughput, MemSilo vs Silo (persistent), warehouses = workers")
	for _, workers := range cfg.workers {
		sc := cfg.scale(workers)
		ccfg := tpcc.StandardConfig()

		// MemSilo.
		db := newDB(workers, nil)
		t := tpcc.Load(db, sc)
		r := median(cfg.runs, func() result {
			return tpccRun("MemSilo", db, t, sc, workers, ccfg, cfg, standardMix)
		})
		fmt.Println(r)
		db.Close()

		// Silo: full persistence.
		db, cleanup := newDurableDB(cfg, workers, fmt.Sprintf("fig5-w%d", workers), silo.DurabilityOptions{})
		t = tpcc.Load(db, sc)
		r = median(cfg.runs, func() result {
			return tpccRun("Silo", db, t, sc, workers, ccfg, cfg, standardMix)
		})
		fmt.Println(r)
		cleanup()
	}
}

// ---- Figure 7: transaction latency under persistence ----

func fig7(cfg config) {
	header("Figure 7: TPC-C latency to durability — Silo (disk) vs Silo+tmpfs (memory)")
	for _, workers := range cfg.workers {
		sc := cfg.scale(workers)
		// Silo+tmpfs is the same logger on a memory filesystem: what is
		// left of the latency is logging without the device.
		for _, mode := range []struct {
			name string
			d    silo.DurabilityOptions
		}{{"Silo", silo.DurabilityOptions{}}, {"Silo+tmpfs", silo.DurabilityOptions{FS: sim.NewFS()}}} {
			db, cleanup := newDurableDB(cfg, workers, fmt.Sprintf("fig7-w%d", workers), mode.d)
			t := tpcc.Load(db, sc)
			hist := &obs.Histogram{}
			ccfg := tpcc.StandardConfig()
			r := run(mode.name, workers, cfg.warmup, cfg.seconds,
				func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
					home := wid%sc.Warehouses + 1
					cl := tpcc.NewClient(t, sc, db.Store().Worker(wid), home, ccfg, uint64(wid)*131+7)
					n := 0
					for !stop.Load() {
						tt := cl.NextType()
						start := time.Now()
						retry(ops, aborts, func() error { return cl.RunOnce(tt) })
						// A transaction's result is released to its client
						// only when its epoch is durable (§4.10), so latency
						// is dominated by the epoch period plus log flushing.
						// Workers process other requests meanwhile; sample
						// the durability wait on every 32nd transaction
						// rather than stalling the worker on each one.
						if n++; n%32 == 0 {
							db.FlushLog(wid)
							db.WaitDurable(db.LastCommitEpoch(wid))
							hist.ObserveDuration(time.Since(start).Nanoseconds())
						}
					}
				})
			lat := hist.Snapshot()
			r.lat = &lat
			fmt.Println(r)
			cleanup()
		}
	}
}

// ---- Figure 8: cross-partition sweep, Partitioned-Store vs MemSilo(+Split) ----

func fig8(cfg config) {
	header(fmt.Sprintf("Figure 8: 100%% new-order, %d warehouses/workers, cross-partition sweep", cfg.wh))
	workers := cfg.wh
	sc := cfg.scale(cfg.wh)
	ccfg := tpcc.StandardConfig()
	remotePcts := []int{0, 1, 2, 5, 10, 20, 40, 60, 80}

	fmt.Println("x-axis: probability a transaction touches ≥1 remote warehouse (paper's axis);")
	fmt.Println("swept internally as per-item remote probability, ~10 items/txn")

	for _, itemPct := range remotePcts {
		ccfg.RemoteItemPct = itemPct
		// P(cross-partition txn) ≈ 1 − (1−p)^10 for the average 10 items.
		crossTxn := 1.0
		q := 1.0 - float64(itemPct)/100
		for i := 0; i < 10; i++ {
			crossTxn *= q
		}
		crossTxn = 1 - crossTxn
		label := fmt.Sprintf("[cross-txn≈%2.0f%%]", crossTxn*100)

		// Partitioned-Store: one partition per warehouse.
		ps := tpcc.LoadPartitioned(sc, sc.Warehouses)
		fmt.Println(median(cfg.runs, func() result {
			return partRun("Partitioned-Store "+label, ps, sc, workers, ccfg, cfg)
		}))

		// MemSilo+Split, then MemSilo (shared tables): one client, two
		// layouts.
		for _, layout := range []struct {
			name string
			load func(*silo.DB, tpcc.Scale) *tpcc.Tables
		}{{"MemSilo+Split", tpcc.LoadSplit}, {"MemSilo", tpcc.Load}} {
			db := newDB(workers, nil)
			t := layout.load(db, sc)
			fmt.Println(median(cfg.runs, func() result {
				return tpccRun(layout.name+" "+label, db, t, sc, workers, ccfg, cfg, newOrderOnly)
			}))
			db.Close()
		}
	}
}

// ---- Figure 9: skew (hotspot) sweep ----

func fig9(cfg config) {
	header("Figure 9: 100% new-order, 4 warehouses in one partition, workers sweep")
	const warehouses = 4
	sc := cfg.scale(warehouses)
	ccfg := tpcc.StandardConfig()
	ccfg.RemoteItemPct = 0

	for _, workers := range cfg.workers {
		// Partitioned-Store: a single partition holding all four
		// warehouses; every transaction takes the same lock, so extra
		// workers cannot help (they serialize, as in the paper).
		ps := tpcc.LoadPartitioned(sc, 1)
		fmt.Println(median(cfg.runs, func() result {
			return partRun("Partitioned-Store", ps, sc, workers, ccfg, cfg)
		}))

		for _, variant := range []struct {
			name    string
			fastIDs bool
		}{{"MemSilo", false}, {"MemSilo+FastIds", true}} {
			db := newDB(workers, nil)
			t := tpcc.Load(db, sc)
			vcfg := ccfg
			vcfg.FastIDs = variant.fastIDs
			r := median(cfg.runs, func() result {
				return tpccRun(variant.name, db, t, sc, workers, vcfg, cfg, newOrderOnly)
			})
			fmt.Println(r)
			db.Close()
		}
	}
}

// ---- Figure 10: effectiveness of snapshot transactions ----

func fig10(cfg config) {
	header("Figure 10 (table): 8 warehouses, 16 workers, 50% new-order + 50% stock-level")
	const warehouses = 8
	workers := 16
	sc := cfg.scale(warehouses)

	for _, variant := range []struct {
		name     string
		snapshot bool
	}{{"MemSilo (snapshot stock-level)", true}, {"MemSilo+NoSS", false}} {
		db := newDB(workers, nil)
		t := tpcc.Load(db, sc)
		ccfg := tpcc.StandardConfig()
		ccfg.SnapshotStockLevel = variant.snapshot
		r := median(cfg.runs, func() result {
			return tpccRun(variant.name, db, t, sc, workers, ccfg, cfg, func(cl *tpcc.Client) tpcc.TxnType {
				if cl.RNG().Intn(2) == 0 {
					return tpcc.TxnStockLevel
				}
				return tpcc.TxnNewOrder
			})
		})
		fmt.Printf("%-32s txns/sec=%-12.0f aborts/sec=%.0f\n", variant.name, r.tps(), r.abortRate())
		db.Close()
	}
}

// ---- Figure 11: factor analysis ----

func fig11(cfg config) {
	header(fmt.Sprintf("Figure 11: factor analysis, TPC-C mix, %d warehouses/workers", cfg.wh))
	workers := cfg.wh
	sc := cfg.scale(cfg.wh)
	ccfg := tpcc.StandardConfig()

	type factor struct {
		name   string
		mutate func(*silo.Options)
	}
	regular := []factor{
		{"Simple", func(o *silo.Options) { o.DisableArena = true; o.DisableOverwrites = true }},
		{"+Allocator", func(o *silo.Options) { o.DisableOverwrites = true }},
		{"+Overwrites (MemSilo)", func(o *silo.Options) {}},
		{"+NoSnapshots", func(o *silo.Options) { o.DisableSnapshots = true }},
		{"+NoGC", func(o *silo.Options) { o.DisableSnapshots = true; o.DisableGC = true }},
	}
	var baseline float64
	fmt.Println("-- Regular group (cumulative, left to right) --")
	for i, f := range regular {
		db := newDB(workers, f.mutate)
		t := tpcc.Load(db, sc)
		r := median(cfg.runs, func() result {
			return tpccRun(f.name, db, t, sc, workers, ccfg, cfg, standardMix)
		})
		if i == 0 {
			baseline = r.tps()
		}
		fmt.Printf("%-24s txns/sec=%-12.0f relative=%.2f\n", f.name, r.tps(), r.tps()/baseline)
		db.Close()
	}

	fmt.Println("-- Persistence group (cumulative, left to right) --")
	pfactors := []struct {
		name string
		d    *silo.DurabilityOptions
	}{
		{"MemSilo", nil},
		{"+SmallRecs", &silo.DurabilityOptions{TIDOnly: true}},
		{"+FullRecs (Silo)", &silo.DurabilityOptions{}},
		{"+Compress", &silo.DurabilityOptions{Compress: true}},
	}
	for i, f := range pfactors {
		var db *silo.DB
		var cleanup func()
		if f.d == nil {
			db = newDB(workers, nil)
			cleanup = db.Close
		} else {
			db, cleanup = newDurableDB(cfg, workers, fmt.Sprintf("fig11-%d", i), *f.d)
		}
		t := tpcc.Load(db, sc)
		r := median(cfg.runs, func() result {
			return tpccRun(f.name, db, t, sc, workers, ccfg, cfg, standardMix)
		})
		if i == 0 {
			baseline = r.tps()
		}
		extra := ""
		if f.d != nil {
			extra = fmt.Sprintf("  logMB=%.1f", float64(db.Observe().Value("silo_wal_bytes_written_total", ""))/1e6)
		}
		fmt.Printf("%-24s txns/sec=%-12.0f relative=%.2f%s\n", f.name, r.tps(), r.tps()/baseline, extra)
		cleanup()
	}
}

// ---- §5.6: space overhead of snapshots ----

func spaceOverhead(cfg config) {
	header("§5.6: snapshot space overhead — YCSB 100% RMW")
	wcfg := ycsb.DefaultConfig(cfg.keys)
	wcfg.ReadPct = 0 // every txn is a read-modify-write
	workers := cfg.workers[len(cfg.workers)-1]

	// The paper's 60 s runs cross a snapshot boundary every second. Scale
	// the snapshot cadence so a short run crosses several boundaries and
	// reaches reclamation steady state; otherwise no snapshot versions are
	// ever retained and the measurement is vacuously zero. The overhead
	// ratio scales as (update rate × retention window) / database size, so
	// it compares with the paper's 3.4% only after scaling by both (README,
	// "Reproducing the paper's experiments").
	db := newDB(workers, func(o *silo.Options) {
		o.EpochInterval = 4 * time.Millisecond
		o.SnapshotK = 2
	})
	defer db.Close()
	tbl := ycsb.LoadSilo(db, wcfg)
	baseBytes := uint64(wcfg.Keys) * uint64(wcfg.ValueSize+32)

	// One sampler reads the retained-bytes gauge through db.Observe while
	// the workers run; the workers only run transactions.
	var peak uint64
	var done atomic.Bool
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for !done.Load() {
			peak = max(peak, db.Observe().Value("silo_core_snapshot_bytes_retained", ""))
			time.Sleep(time.Millisecond)
		}
	}()
	r := run("MemSilo 100% RMW", workers, cfg.warmup, cfg.seconds, siloWorker(db, tbl, wcfg, ycsb.Scans{}, nil))
	done.Store(true)
	<-sampled
	snap := db.Observe()
	fmt.Println(r)
	fmt.Printf("database size ≈ %.1f MB; peak snapshot bytes retained = %.1f MB (%.1f%% overhead)\n",
		float64(baseBytes)/1e6, float64(peak)/1e6, 100*float64(peak)/float64(baseBytes))
	fmt.Printf("snapshot versions created=%d reaped=%d\n",
		snap.Value("silo_core_snapshot_versions_total", "created"),
		snap.Value("silo_core_snapshot_versions_total", "reaped"))
}
