package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"silo"
	"silo/internal/bench"
	"silo/internal/core"
	"silo/internal/kvstore"
	"silo/internal/obs"
	"silo/internal/tid"
	"silo/internal/wal"
	"silo/internal/workload/tpcc"
	"silo/internal/workload/ycsb"
)

func (c config) scale(warehouses int) tpcc.Scale {
	if c.full {
		return tpcc.FullScale(warehouses)
	}
	return tpcc.DefaultScale(warehouses)
}

func newStore(workers int, mutate func(*core.Options)) *core.Store {
	opts := core.DefaultOptions(workers)
	if mutate != nil {
		mutate(&opts)
	}
	return core.NewStore(opts)
}

// newDB opens a catalog-backed database for the experiment groups that
// exercise the public API; groups that need the raw wal.Manager handle
// (latency heartbeats, log-mode sweeps) still assemble a bare store.
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

// ---- Figure 4: overhead of small transactions (YCSB variant) ----

func fig4(cfg config) {
	header("Figure 4: YCSB-A variant — Key-Value vs MemSilo vs MemSilo+GlobalTID")
	wcfg := ycsb.DefaultConfig(cfg.keys)
	fmt.Printf("keys=%d value=%dB read/rmw=%d/%d\n", wcfg.Keys, wcfg.ValueSize, wcfg.ReadPct, 100-wcfg.ReadPct)

	for _, workers := range cfg.workers {
		// Key-Value: the bare tree.
		kv := kvstore.New()
		ycsb.LoadKV(kv, wcfg)
		r := bench.Median(cfg.runs, func() bench.Result {
			return bench.Run("Key-Value", workers, cfg.warmup, cfg.seconds,
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
			s := newStore(workers, func(o *core.Options) { o.GlobalTID = sys.globalTID })
			tbl := ycsb.LoadSilo(s, wcfg)
			r := bench.Median(cfg.runs, func() bench.Result {
				return bench.Run(sys.name, workers, cfg.warmup, cfg.seconds,
					func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
						gen := ycsb.NewGenerator(wcfg, uint64(wid)+1)
						w := s.Worker(wid)
						var kb []byte
						for !stop.Load() {
							var ok bool
							ok, kb = ycsb.RunSiloOp(w, tbl, gen.Next(), kb)
							if ok {
								ops.Add(1)
							} else {
								aborts.Add(1)
							}
						}
					})
			})
			fmt.Println(r)
			s.Close()
		}
	}
}

// ---- Figures 5 & 6: TPC-C throughput and per-core throughput ----

// tpccMixRun drives the standard mix with one client per worker, home
// warehouse wid%warehouses+1.
func tpccMixRun(name string, s *core.Store, t *tpcc.Tables, sc tpcc.Scale, workers int,
	ccfg tpcc.ClientConfig, cfg config, durable *wal.Manager) bench.Result {
	return bench.Run(name, workers, cfg.warmup, cfg.seconds,
		func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
			home := wid%sc.Warehouses + 1
			cl := tpcc.NewClient(t, sc, s.Worker(wid), home, ccfg, uint64(wid)*7919+3)
			wl := (*wal.WorkerLog)(nil)
			if durable != nil {
				wl = durable.WorkerLog(wid)
			}
			for !stop.Load() {
				tt := cl.NextType()
				for {
					err := cl.RunOnce(tt)
					if err == core.ErrConflict {
						aborts.Add(1)
						continue
					}
					ops.Add(1)
					break
				}
				if wl != nil {
					wl.MaybeHeartbeat()
				}
			}
		})
}

func fig5and6(cfg config) {
	header("Figures 5 & 6: TPC-C throughput, MemSilo vs Silo (persistent), warehouses = workers")
	for _, workers := range cfg.workers {
		sc := cfg.scale(workers)
		ccfg := tpcc.StandardConfig()

		// MemSilo.
		db := newDB(workers, nil)
		t := tpcc.Load(db, sc)
		r := bench.Median(cfg.runs, func() bench.Result {
			return tpccMixRun("MemSilo", db.Store(), t, sc, workers, ccfg, cfg, nil)
		})
		fmt.Println(r)
		db.Close()

		// Silo: full persistence. The raw manager handle feeds the
		// heartbeat/durability plumbing of tpccMixRun, so this group
		// stays on the store-level loader.
		dir := filepath.Join(cfg.logDir, fmt.Sprintf("fig5-w%d", workers))
		os.MkdirAll(dir, 0o755)
		s := newStore(workers, nil)
		m, err := wal.Attach(s, wal.Config{Dir: dir, Loggers: cfg.loggers, Sync: cfg.sync})
		if err != nil {
			panic(err)
		}
		t = tpcc.LoadStore(s, sc)
		m.Start()
		r = bench.Median(cfg.runs, func() bench.Result {
			return tpccMixRun("Silo", s, t, sc, workers, ccfg, cfg, m)
		})
		fmt.Println(r)
		m.Stop()
		s.Close()
		os.RemoveAll(dir)
	}
}

// ---- Figure 7: transaction latency under persistence ----

func fig7(cfg config) {
	header("Figure 7: TPC-C latency to durability — Silo (disk) vs Silo+tmpfs (memory)")
	for _, workers := range cfg.workers {
		sc := cfg.scale(workers)
		for _, mode := range []struct {
			name     string
			inMemory bool
		}{{"Silo", false}, {"Silo+tmpfs", true}} {
			dir := filepath.Join(cfg.logDir, fmt.Sprintf("fig7-w%d", workers))
			os.MkdirAll(dir, 0o755)
			s := newStore(workers, nil)
			m, err := wal.Attach(s, wal.Config{
				Dir: dir, Loggers: cfg.loggers, Sync: cfg.sync, InMemory: mode.inMemory,
			})
			if err != nil {
				panic(err)
			}
			t := tpcc.LoadStore(s, sc)
			m.Start()
			hist := &obs.Histogram{}
			ccfg := tpcc.StandardConfig()
			r := bench.Run(mode.name, workers, cfg.warmup, cfg.seconds,
				func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
					home := wid%sc.Warehouses + 1
					cl := tpcc.NewClient(t, sc, s.Worker(wid), home, ccfg, uint64(wid)*131+7)
					wl := m.WorkerLog(wid)
					n := 0
					for !stop.Load() {
						tt := cl.NextType()
						start := time.Now()
						for {
							err := cl.RunOnce(tt)
							if err == core.ErrConflict {
								aborts.Add(1)
								continue
							}
							break
						}
						ops.Add(1)
						// A transaction's result is released to its client
						// only when its epoch is durable (§4.10), so latency
						// is dominated by the epoch period plus log flushing.
						// Workers process other requests meanwhile; sample
						// the durability wait on every 32nd transaction
						// rather than stalling the worker on each one.
						if n++; n%32 == 0 {
							wl.Heartbeat()
							m.WaitDurable(tid.Word(s.Worker(wid).LastCommitTID()).Epoch())
							hist.ObserveDuration(time.Since(start).Nanoseconds())
						}
					}
				})
			r.Lat = hist
			fmt.Println(r)
			m.Stop()
			s.Close()
			os.RemoveAll(dir)
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

		// Partitioned-Store.
		ps := tpcc.LoadPartitioned(sc)
		r := bench.Median(cfg.runs, func() bench.Result {
			return bench.Run("Partitioned-Store "+label, workers, cfg.warmup, cfg.seconds,
				func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
					cl := tpcc.NewPartClient(ps, sc, wid%sc.Warehouses+1, ccfg, uint64(wid)*17+1)
					for !stop.Load() {
						cl.NewOrder()
						ops.Add(1)
					}
				})
		})
		fmt.Println(r)

		// MemSilo+Split.
		s := newStore(workers, nil)
		st := tpcc.LoadSplit(s, sc)
		r = bench.Median(cfg.runs, func() bench.Result {
			return bench.Run("MemSilo+Split "+label, workers, cfg.warmup, cfg.seconds,
				func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
					cl := tpcc.NewSplitClient(st, s.Worker(wid), wid%sc.Warehouses+1, ccfg, uint64(wid)*23+9)
					for !stop.Load() {
						for {
							err := cl.NewOrder()
							if err == core.ErrConflict {
								aborts.Add(1)
								continue
							}
							ops.Add(1)
							break
						}
					}
				})
		})
		fmt.Println(r)
		s.Close()

		// MemSilo (shared store).
		db := newDB(workers, nil)
		t := tpcc.Load(db, sc)
		r = bench.Median(cfg.runs, func() bench.Result {
			return bench.Run("MemSilo "+label, workers, cfg.warmup, cfg.seconds,
				func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
					cl := tpcc.NewClient(t, sc, db.Store().Worker(wid), wid%sc.Warehouses+1, ccfg, uint64(wid)*29+4)
					for !stop.Load() {
						for {
							err := cl.RunOnce(tpcc.TxnNewOrder)
							if err == core.ErrConflict {
								aborts.Add(1)
								continue
							}
							ops.Add(1)
							break
						}
					}
				})
		})
		fmt.Println(r)
		db.Close()
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
		ps := tpcc.LoadSinglePartition(sc)
		r := bench.Median(cfg.runs, func() bench.Result {
			return bench.Run("Partitioned-Store", workers, cfg.warmup, cfg.seconds,
				func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
					cl := tpcc.NewPartClient(ps, sc, wid%warehouses+1, ccfg, uint64(wid)*37+2)
					cl.SinglePartition = true
					for !stop.Load() {
						cl.NewOrder()
						ops.Add(1)
					}
				})
		})
		fmt.Println(r)

		for _, variant := range []struct {
			name    string
			fastIDs bool
		}{{"MemSilo", false}, {"MemSilo+FastIds", true}} {
			db := newDB(workers, nil)
			t := tpcc.Load(db, sc)
			vcfg := ccfg
			vcfg.FastIDs = variant.fastIDs
			r := bench.Median(cfg.runs, func() bench.Result {
				return bench.Run(variant.name, workers, cfg.warmup, cfg.seconds,
					func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
						cl := tpcc.NewClient(t, sc, db.Store().Worker(wid), wid%warehouses+1, vcfg, uint64(wid)*41+8)
						for !stop.Load() {
							for {
								err := cl.RunOnce(tpcc.TxnNewOrder)
								if err == core.ErrConflict {
									aborts.Add(1)
									continue
								}
								ops.Add(1)
								break
							}
						}
					})
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
		r := bench.Median(cfg.runs, func() bench.Result {
			return bench.Run(variant.name, workers, cfg.warmup, cfg.seconds,
				func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
					cl := tpcc.NewClient(t, sc, db.Store().Worker(wid), wid%warehouses+1, ccfg, uint64(wid)*43+6)
					for !stop.Load() {
						tt := tpcc.TxnNewOrder
						if cl.RNG().Intn(2) == 0 {
							tt = tpcc.TxnStockLevel
						}
						for {
							err := cl.RunOnce(tt)
							if err == core.ErrConflict {
								aborts.Add(1)
								continue
							}
							ops.Add(1)
							break
						}
					}
				})
		})
		fmt.Printf("%-32s txns/sec=%-12.0f aborts/sec=%.0f\n", variant.name, r.TPS(), r.AbortRate())
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
		r := bench.Median(cfg.runs, func() bench.Result {
			return tpccMixRun(f.name, db.Store(), t, sc, workers, ccfg, cfg, nil)
		})
		if i == 0 {
			baseline = r.TPS()
		}
		fmt.Printf("%-24s txns/sec=%-12.0f relative=%.2f\n", f.name, r.TPS(), r.TPS()/baseline)
		db.Close()
	}

	fmt.Println("-- Persistence group (cumulative, left to right) --")
	type pfactor struct {
		name string
		wcfg *wal.Config
	}
	pfactors := []pfactor{
		{"MemSilo", nil},
		{"+SmallRecs", &wal.Config{Mode: wal.ModeTIDOnly}},
		{"+FullRecs (Silo)", &wal.Config{Mode: wal.ModeFull}},
		{"+Compress", &wal.Config{Mode: wal.ModeFull, Compress: true}},
	}
	baseline = 0
	for i, f := range pfactors {
		s := newStore(workers, nil)
		var m *wal.Manager
		if f.wcfg != nil {
			dir := filepath.Join(cfg.logDir, fmt.Sprintf("fig11-%d", i))
			os.MkdirAll(dir, 0o755)
			w := *f.wcfg
			w.Dir = dir
			w.Loggers = cfg.loggers
			w.Sync = cfg.sync
			var err error
			m, err = wal.Attach(s, w)
			if err != nil {
				panic(err)
			}
		}
		t := tpcc.LoadStore(s, sc)
		if m != nil {
			m.Start()
		}
		r := bench.Median(cfg.runs, func() bench.Result {
			return tpccMixRun(f.name, s, t, sc, workers, ccfg, cfg, m)
		})
		if i == 0 {
			baseline = r.TPS()
		}
		extra := ""
		if m != nil {
			extra = fmt.Sprintf("  logMB=%.1f", float64(m.Stats().BytesWritten.Load())/1e6)
		}
		fmt.Printf("%-24s txns/sec=%-12.0f relative=%.2f%s\n", f.name, r.TPS(), r.TPS()/baseline, extra)
		if m != nil {
			m.Stop()
		}
		s.Close()
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
	// ratio scales as (update rate × retention window) / database size —
	// see EXPERIMENTS.md for the comparison against the paper's 3.4%.
	s := newStore(workers, func(o *core.Options) {
		o.EpochInterval = 4 * time.Millisecond
		o.SnapshotK = 2
	})
	tbl := ycsb.LoadSilo(s, wcfg)
	baseBytes := uint64(wcfg.Keys) * uint64(wcfg.ValueSize+32)

	var peak atomic.Uint64
	r := bench.Run("MemSilo 100% RMW", workers, cfg.warmup, cfg.seconds,
		func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
			gen := ycsb.NewGenerator(wcfg, uint64(wid)+1)
			w := s.Worker(wid)
			var kb []byte
			n := 0
			for !stop.Load() {
				var ok bool
				ok, kb = ycsb.RunSiloOp(w, tbl, gen.Next(), kb)
				if ok {
					ops.Add(1)
				} else {
					aborts.Add(1)
				}
				if n++; n%1024 == 0 {
					st := s.Stats()
					for {
						cur := peak.Load()
						if st.SnapshotBytesRetained <= cur || peak.CompareAndSwap(cur, st.SnapshotBytesRetained) {
							break
						}
					}
				}
			}
		})
	st := s.Stats()
	fmt.Println(r)
	fmt.Printf("database size ≈ %.1f MB; peak snapshot bytes retained = %.1f MB (%.1f%% overhead)\n",
		float64(baseBytes)/1e6, float64(peak.Load())/1e6, 100*float64(peak.Load())/float64(baseBytes))
	fmt.Printf("snapshot versions created=%d reaped=%d\n", st.SnapshotVersionsCreated, st.SnapshotVersionsReaped)
	s.Close()
}
