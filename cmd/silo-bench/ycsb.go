package main

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"silo"
	"silo/client"
	"silo/internal/obs"
	"silo/internal/trace"
	"silo/internal/workload/ycsb"
	"silo/wire"
)

// ycsbFlags are the settings of -exp ycsb beyond the harness's own.
type ycsbFlags struct {
	mix       ycsb.Config // all but Keys, which is -keys
	addr      string      // a silo-server to drive; empty opens an embedded MemSilo
	conns     int         // connections per caller
	txn       int         // point ops per TXN frame; ≤ 1 sends single-op requests
	load      bool        // preload the key space over the wire
	traceFrac float64     // fraction of point ops sent as TRACE frames
	index     bool        // scans read the counter index
	covering  bool        // ... a covering one, from entry values alone
	snapshot  bool        // ... at a consistent snapshot
	ckptEvery time.Duration
	keepLog   bool // -logdir was given: the embedded store is durable into it
}

// The counter index -index declares: non-unique over the big-endian
// counter in every record's first 8 bytes. -covering declares it under
// indexName+"_cov" with the first coveringWidth record bytes (counter and
// 8 payload bytes) included, so scans never resolve a primary row.
const (
	indexName     = "usertable_by_ctr"
	coveringWidth = 16
)

func (y *ycsbFlags) indexName() string {
	if y.covering {
		return indexName + "_cov"
	}
	return indexName
}

func (y *ycsbFlags) check() error {
	switch {
	case y.mix.HotFrac < 0 || y.mix.HotFrac > 1:
		return errors.New("-hot-frac must be in [0,1]")
	case y.traceFrac < 0 || y.traceFrac > 1:
		return errors.New("-trace-frac must be in [0,1]")
	case y.traceFrac > 0 && y.addr == "":
		return errors.New("-trace-frac samples TRACE frames over the wire; it needs -addr")
	case y.covering && y.mix.ValueSize < coveringWidth:
		return fmt.Errorf("-covering includes the first %d record bytes; -valuesize %d is too small", coveringWidth, y.mix.ValueSize)
	case y.snapshot && !y.index && !y.covering:
		return errors.New("-snapshot-scans requires -index")
	case y.addr != "" && (y.ckptEvery > 0 || y.keepLog):
		return errors.New("-checkpoint-interval and -logdir configure the embedded store; give silo-server its own")
	}
	return nil
}

// meter times the ops of one run's measured window: their latency, in a
// histogram per worker so that workers share no cache line as they time,
// and the server span timelines of those sent as TRACE frames.
type meter struct {
	on      atomic.Bool
	lat     []obs.Histogram
	spans   [len(trace.SpanNames)]obs.Histogram
	retries atomic.Uint64
}

func (m *meter) done(wid int, t0 time.Time) {
	if m.on.Load() {
		m.lat[wid].ObserveDuration(time.Since(t0).Nanoseconds())
	}
}

func (m *meter) traced(sp *silo.TxnSpans) {
	if m.on.Load() {
		for i, d := range [...]time.Duration{sp.Queue, sp.Exec, sp.Validate, sp.Log, sp.Fsync, sp.Respond} {
			m.spans[i].ObserveDuration(int64(d))
		}
		m.retries.Add(uint64(sp.Retries))
	}
}

// sweep prints one row per -workers count, fn building each run's workers,
// and under it the average span timeline of the run's traced ops. A run's
// meter opens its window when run takes its first count, after the warmup.
func sweep(cfg config, out io.Writer, name string, fn func(*meter) workerFn) {
	for _, n := range cfg.workers {
		r := median(cfg.runs, func() result {
			m := &meter{lat: make([]obs.Histogram, n)}
			open := time.AfterFunc(cfg.warmup, func() { m.on.Store(true) })
			defer open.Stop()
			r := run(name, n, cfg.warmup, cfg.seconds, fn(m))
			r.lat = &obs.HistSnapshot{}
			for i := range m.lat {
				r.lat.Merge(m.lat[i].Snapshot())
			}
			if traced := m.spans[0].Snapshot().Count; traced > 0 {
				r.note = fmt.Sprintf("\ntraced %d ops, avg:", traced)
				for i, stage := range trace.SpanNames {
					r.note += fmt.Sprintf(" %s=%v", stage, time.Duration(m.spans[i].Snapshot().Mean()))
				}
				r.note += fmt.Sprintf(" (%.2f retries/op)", float64(m.retries.Load())/float64(traced))
			}
			return r
		})
		fmt.Fprintf(out, "%v  failed=%d%s\n", r, r.aborts, r.note)
	}
}

// siloWorker runs mix through ycsb.RunSiloOp on db's worker wid until
// stop, the generator seeded by wid: a committed op counts in ops, and its
// latency in m when m is set; an aborted one counts in aborts.
func siloWorker(db *silo.DB, tbl *silo.Table, mix ycsb.Config, sc ycsb.Scans, m *meter) workerFn {
	return func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64) {
		gen := ycsb.NewGenerator(mix, uint64(wid)+1)
		w := db.Store().Worker(wid)
		var s ycsb.Scratch
		var t0 time.Time
		for !stop.Load() {
			if m != nil {
				t0 = time.Now()
			}
			if !ycsb.RunSiloOp(w, tbl, sc, gen.Next(), &s) {
				aborts.Add(1)
				continue
			}
			ops.Add(1)
			if m != nil {
				m.done(wid, t0)
			}
		}
	}
}

// ycsbExp runs the §5.2 mix (the workload of Figure 4) against one store,
// embedded or a silo-server over the wire, at each -workers count, and
// reports each point's row, then the store's abort reasons and, when it
// has them, its durable acks and checkpoint daemon. A row's aborts are
// failed ops: conflict aborts embedded, failed requests over the wire.
func ycsbExp(cfg config, out io.Writer) error {
	y := cfg.ycsb
	if err := y.check(); err != nil {
		return err
	}
	y.mix.Keys = cfg.keys
	y.index = y.index || y.covering
	fmt.Fprintf(out, "\n=== YCSB (§5.2 mix) ===\nkeys=%d value=%dB read/rmw=%d/%d scans=%g×%d index=%v covering=%v snapshot=%v hot=%g/%d\n",
		y.mix.Keys, y.mix.ValueSize, y.mix.ReadPct, 100-y.mix.ReadPct, y.mix.ScanFrac, y.mix.ScanLen,
		y.index, y.covering, y.snapshot, y.mix.HotFrac, y.mix.HotKeys)
	if y.addr != "" {
		return y.overWire(cfg, out)
	}
	return y.embedded(cfg, out)
}

func (y *ycsbFlags) embedded(cfg config, out io.Writer) error {
	opts := silo.Options{Workers: slices.Max(cfg.workers)}
	if y.keepLog || y.ckptEvery > 0 {
		opts.Durability = &silo.DurabilityOptions{
			Dir: cfg.logDir, Loggers: cfg.loggers, Sync: cfg.sync,
			SegmentBytes: 16 << 20, CheckpointInterval: y.ckptEvery,
		}
	}
	db, err := silo.Open(opts)
	if err != nil {
		return err
	}
	tbl := ycsb.LoadSilo(db, y.mix)
	sc := ycsb.Scans{Covering: y.covering, Snapshot: y.snapshot}
	if y.index {
		var inc []silo.IndexSeg
		if y.covering {
			inc = []silo.IndexSeg{{FromValue: true, Len: coveringWidth}}
		}
		sc.Index, err = db.CreateIndexSpec(0, tbl, y.indexName(), false, []silo.IndexSeg{{FromValue: true, Len: 8}}, inc...)
	}
	if err != nil {
		db.Close()
		return fmt.Errorf("create index: %w", err)
	}
	sweep(cfg, out, "YCSB embedded", func(m *meter) workerFn { return siloWorker(db, tbl, y.mix, sc, m) })
	printAborts(out, db.Observe())
	// Close stops the daemon and waits out a tick still checkpointing, so
	// the counts read after it include every set on disk.
	db.Close()
	if ds, ok := db.CheckpointDaemon(); ok {
		fmt.Fprintf(out, "checkpoint daemon: %d checkpoints (last CE=%d, %d rows, %v), %d skipped, %d failed, %d log segments truncated\n",
			ds.Checkpoints, ds.LastEpoch, ds.LastRows, ds.LastElapsed.Round(time.Millisecond), ds.Skipped, ds.Failed, ds.TruncatedSegments)
		if ds.LastErr != nil {
			fmt.Fprintf(out, "checkpoint daemon error: %v\n", ds.LastErr)
		}
	}
	return nil
}

// printAborts reports the store's abort reasons and, from a server that
// releases durable group acks, the group-ack view of the run: when that
// line is present, every counted write was epoch-durable before its ack.
func printAborts(out io.Writer, snap *obs.Snapshot) {
	var total uint64
	line := "aborts:"
	for _, reason := range trace.AbortReasonNames {
		v := snap.Value("silo_core_aborts_total", reason)
		total += v
		line += fmt.Sprintf(" %s=%d", reason, v)
	}
	fmt.Fprintf(out, "%s (total %d)\n", line, total)
	if h := snap.Get("silo_server_release_lag_ns", ""); h != nil {
		fmt.Fprintf(out, "durable acks: %d writes released at D=%d (parked now=%d)",
			snap.Value("silo_server_released_total", ""),
			snap.Value("silo_wal_durable_epoch", ""),
			snap.Value("silo_server_parked_responses", ""))
		if h.Hist.Count > 0 {
			fmt.Fprintf(out, ", release lag p50=%v p99=%v",
				time.Duration(h.Hist.Quantile(0.50)), time.Duration(h.Hist.Quantile(0.99)))
		}
		fmt.Fprintln(out)
	}
}

func (y *ycsbFlags) overWire(cfg config, out io.Writer) error {
	clients := make([]*client.Client, slices.Max(cfg.workers))
	for i := range clients {
		cl, err := client.Dial(y.addr, client.Options{Conns: y.conns})
		if err != nil {
			return err
		}
		defer cl.Close()
		clients[i] = cl
	}
	if y.load {
		if err := y.preload(clients); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		fmt.Fprintf(out, "loaded %d keys of %d bytes into %q\n", y.mix.Keys, y.mix.ValueSize, ycsb.TableName)
	}
	if y.index {
		var inc []wire.IndexSeg
		if y.covering {
			inc = []wire.IndexSeg{{FromValue: true, Len: coveringWidth}}
		}
		if err := clients[0].CreateIndex(y.indexName(), ycsb.TableName, false, []wire.IndexSeg{{FromValue: true, Len: 8}}, inc...); err != nil {
			return fmt.Errorf("create index: %w", err)
		}
	}
	name := "YCSB wire"
	if y.txn > 1 {
		name = fmt.Sprintf("YCSB wire txn=%d", y.txn)
	}
	sweep(cfg, out, name, func(m *meter) workerFn { return y.wireWorker(clients, m) })
	snap, err := clients[0].Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	printAborts(out, snap)
	return nil
}

// wireWorker issues mix's ops from clients[wid]: GET for a read, ADD (a
// server-side increment, one round trip) for an RMW, a -txn batch of them
// as one TXN frame, every 1/traceFrac-th one as a TRACE frame, and a scan
// as SCAN, ISCAN or covering ISCAN.
func (y *ycsbFlags) wireWorker(clients []*client.Client, m *meter) workerFn {
	traceEvery := 0
	if y.traceFrac > 0 {
		traceEvery = max(1, int(1/y.traceFrac))
	}
	return func(wid int, stop *atomic.Bool, ops, fails *atomic.Uint64) {
		cl, gen := clients[wid], ycsb.NewGenerator(y.mix, uint64(wid)+1)
		var kb []byte
		for i := 0; !stop.Load(); i++ {
			t0 := time.Now()
			op := gen.Next()
			kb = ycsb.Key(op.Key, kb)
			var err error
			switch {
			case op.Scan && y.index:
				kb = ycsb.AppendKey(op.Key, append(kb[:0], 0, 0, 0, 0, 0, 0, 0, 0)) // see ycsb.RunSiloOp
				if y.covering {
					_, err = cl.IndexScanCovering(y.indexName(), kb, nil, op.Len, y.snapshot)
				} else {
					_, err = cl.IndexScan(y.indexName(), kb, nil, op.Len, y.snapshot)
				}
			case op.Scan:
				_, err = cl.Scan(ycsb.TableName, kb, nil, op.Len)
			case traceEvery > 0 && i%traceEvery == 0:
				var sp *silo.TxnSpans
				if _, sp, err = y.batch(cl, gen, op).Trace(); err == nil {
					m.traced(sp)
				}
			case y.txn > 1:
				_, err = y.batch(cl, gen, op).Exec()
			case op.Read:
				_, err = cl.Get(ycsb.TableName, kb)
			default:
				_, err = cl.Add(ycsb.TableName, kb, 1)
			}
			if err != nil {
				fails.Add(1)
				continue
			}
			ops.Add(1)
			m.done(wid, t0)
		}
	}
}

// batch puts op and the next -txn-1 point ops into one transaction frame.
func (y *ycsbFlags) batch(cl *client.Client, gen *ycsb.Generator, op ycsb.Op) *client.Txn {
	txn := cl.Txn()
	for i := range max(1, y.txn) {
		if i > 0 {
			for op = gen.Next(); op.Scan; op = gen.Next() { // scans cannot ride inside TXN frames
			}
		}
		if key := ycsb.Key(op.Key, nil); op.Read {
			txn.Get(ycsb.TableName, key)
		} else {
			txn.Add(ycsb.TableName, key, 1)
		}
	}
	return txn
}

// preload inserts the key space through the wire in TXN frames of 128
// rows, one loader per client.
func (y *ycsbFlags) preload(clients []*client.Client) error {
	const batch = 128
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for l, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := l * batch; lo < y.mix.Keys && errs[l] == nil; lo += len(clients) * batch {
				txn := cl.Txn()
				for i := lo; i < min(lo+batch, y.mix.Keys); i++ {
					// Vary the record in its last byte, as ycsb.LoadSilo
					// does; the first 8 are the counter ADD increments.
					val := make([]byte, y.mix.ValueSize)
					val[len(val)-1] = byte(i)
					txn.Insert(ycsb.TableName, ycsb.Key(uint64(i), nil), val)
				}
				if _, err := txn.Exec(); err != nil {
					errs[l] = fmt.Errorf("batch at %d: %w", lo, err)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
