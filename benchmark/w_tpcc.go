package main

import (
	"errors"
	"fmt"
	"time"

	"silo"
	"silo/internal/workload/tpcc"
	"silo/internal/workload/ycsb"
)

type tpccParams struct {
	Warehouses int    `json:"warehouses"`
	Workers    int    `json:"workers"`
	Scale      string `json:"scale"`
	Mix        string `json:"mix"`
	Durable    bool   `json:"durable"`
}

// tpccEnv is an embedded database loaded with TPC-C.
type tpccEnv struct {
	db *silo.DB
	t  *tpcc.Tables
}

func (e *tpccEnv) close() { e.db.Close() }

func runTpccEmbedded(r *run) error {
	sc := tpcc.DefaultScale(r.procs)
	if r.cfg.smoke {
		sc.CustomersPerDist, sc.Items, sc.InitOrdersPerDist = 60, 1000, 60
	}
	r.params = tpccParams{Warehouses: sc.Warehouses, Workers: r.procs,
		Scale: fmt.Sprintf("%d districts x %d customers, %d items", sc.DistrictsPerWH, sc.CustomersPerDist, sc.Items),
		Mix:   "45/43/4/4/4"}

	env, err := setupMedian(r, func() (*tpccEnv, error) {
		db, err := silo.Open(silo.Options{Workers: r.procs})
		if err != nil {
			return nil, err
		}
		return &tpccEnv{db: db, t: tpcc.Load(db, sc)}, nil
	})
	if err != nil {
		return err
	}
	defer env.close()

	// One client per worker, each on its own home warehouse (§5.3).
	clients := make([]*tpcc.Client, r.procs)
	for c := range clients {
		clients[c] = tpcc.NewClient(env.t, sc, env.db.Store().Worker(c), c+1, tpcc.StandardConfig(), callerSeed(r.cfg.seed, c))
	}
	op := func(c int, _ bool) (int, *silo.TxnSpans, error) {
		// The 1% of new-orders that name an unused item roll back by
		// design (clause 2.4.1.4); that is an outcome, not a failure.
		if err := clients[c].RunMix(); err != nil && !errors.Is(err, tpcc.ErrRollback) {
			return 0, nil, err
		}
		return 0, nil, nil
	}
	spec := loadSpec{callers: r.procs, warm: r.size.warm, dur: r.cfg.seconds, kinds: 1, op: op}

	if !r.cfg.trace {
		res := runLoad(spec)
		r.reportLoad(&res, res.lat[0])
	} else {
		// The TPC-C client drives its core worker directly, so there is no
		// traced entry point to switch to: the request span is the
		// benchmark's own, and the commit phases come from the engine's
		// sampled phase histograms (1 commit in 64) over the same interval.
		spec.traced, spec.base = true, r.began
		d := obsDelta{before: env.db.Observe()}
		epoch0, t0 := env.db.Epoch(), time.Now()
		res := runLoad(spec)
		d.after, d.elapsed = env.db.Observe(), time.Since(t0)
		r.addLoad(&res)
		lat := res.lat[0]
		r.reportTail(lat)
		r.set("epoch.advance_ms", ratio(float64(d.elapsed.Milliseconds()), float64(env.db.Epoch()-epoch0)))
		setEngineCounts(r, d)
		validate := d.hist("silo_core_commit_phase_ns", "lock").Mean() + d.hist("silo_core_commit_phase_ns", "validate").Mean()
		install := d.hist("silo_core_commit_phase_ns", "install")
		r.setN("core.validate_ns", validate, int(install.Count))
		r.setN("core.log_ns", install.Mean(), int(install.Count))
		r.setN("core.exec_ns", mean(lat)-validate-install.Mean(), len(lat))
		r.logSpans([]string{"run_mix"}, res.reqs)

		probeBtree(r, sc.Items*sc.Warehouses, r.cfg.seed)
		if err := probeTpccIndexes(r, env, sc); err != nil {
			return err
		}
	}

	r.mark("phase_load")
	s := env.db.Store()
	for _, c := range []struct {
		name string
		err  error
	}{
		{"consistency", tpcc.CheckConsistency(s, env.t, sc)},
		{"indexes", tpcc.CheckIndexes(s, env.t)},
		{"money", tpcc.CheckMoney(s, env.t, sc)},
	} {
		r.check(c.err == nil, "TPC-C %s check: %v", c.name, c.err)
	}
	return nil
}

// probeTpccIndexes times the two index read paths TPC-C uses, embedded on
// the loaded database: a batched resolving scan of the customer-name index
// over one (warehouse, district, last name) prefix, as Payment and
// Order-Status by name do, and a unique LookupIndex on order-cust.
func probeTpccIndexes(r *run, env *tpccEnv, sc tpcc.Scale) error {
	const scans, lookups = 5000, 20_000
	rng := ycsb.NewRNG(r.cfg.seed ^ 0x7cc)
	var lo, hi []byte
	rows := 0
	start := time.Now()
	for i := 0; i < scans; i++ {
		w, d := 1+rng.Intn(sc.Warehouses), 1+rng.Intn(sc.DistrictsPerWH)
		last := tpcc.LastNameLoad(1 + rng.Intn(sc.CustomersPerDist))
		lo, hi = tpcc.CustomerNamePrefixLo(lo, w, d, last), tpcc.CustomerNamePrefixHi(hi, w, d, last)
		err := env.db.Run(0, func(tx *silo.Tx) error {
			return silo.ScanIndexBatched(tx, env.t.CustomerName, lo, hi, 0, func(_, _, _ []byte) bool {
				rows++
				return true
			})
		})
		if err != nil {
			return fmt.Errorf("customer-name scan probe: %w", err)
		}
	}
	d := time.Since(start)
	r.span("index.scan", start, d)
	r.setN("index.scan_ns_per_row", ratio(float64(d), float64(rows)), rows)

	var sks [][]byte
	err := env.db.Run(0, func(tx *silo.Tx) error {
		sks = sks[:0]
		return silo.ScanIndexEntries(tx, env.t.OrderCust, []byte{0}, nil, func(sk, _ []byte) bool {
			sks = append(sks, append([]byte(nil), sk...))
			return len(sks) < lookups
		})
	})
	if err != nil {
		return fmt.Errorf("collect order-cust keys: %w", err)
	}
	start = time.Now()
	for _, sk := range sks {
		err := env.db.Run(0, func(tx *silo.Tx) error {
			_, _, err := silo.LookupIndex(tx, env.t.OrderCust, sk)
			return err
		})
		if err != nil {
			return fmt.Errorf("order-cust lookup probe: %w", err)
		}
	}
	d = time.Since(start)
	r.span("index.lookup", start, d)
	r.setN("index.lookup_ns", ratio(float64(d), float64(len(sks))), len(sks))
	return nil
}
