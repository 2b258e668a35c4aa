// Command silo-loadgen drives a silo database with the paper's YCSB-like
// mix (§5.2: uniform keys, 100-byte records, 80% reads / 20%
// read-modify-writes) and reports closed-loop throughput and latency
// percentiles. The same op generation (internal/workload/ycsb) backs the
// embedded benchmarks in silo-bench, so embedded and over-the-wire numbers
// are directly comparable — and -embedded runs the identical mix against
// an in-process database with the same report.
//
// A YCSB-E-style scan-heavy mode mixes in range scans (-scan-frac,
// -scan-len); with -index the scans go through a secondary index on the
// record's counter field instead of the primary key space, exercising
// CREATE_INDEX/ISCAN over the wire and the index subsystem embedded
// (-snapshot-scans reads the index at a consistent snapshot). Index scans
// resolve rows with batched multi-get descents; -covering declares the
// index with an include list so scans are served from entry values alone,
// never touching the primary table.
//
// Usage:
//
//	silo-server -addr :4555 &
//	silo-loadgen -addr localhost:4555 -load -keys 100000
//	silo-loadgen -addr localhost:4555 -clients 16 -conns 4 -duration 10s
//	silo-loadgen -addr localhost:4555 -scan-frac 0.95 -scan-len 100 -index
//	silo-loadgen -embedded -clients 8 -scan-frac 0.5
//
// Reads map to GET, read-modify-writes to ADD (a server-side serializable
// increment in one round trip); -txn batches each client's point ops into
// multi-op one-shot transaction frames instead. -trace-frac samples a
// fraction of point ops as TRACE frames, and the report then includes the
// average server-side span timeline (queue wait, execute, validate, log,
// fsync wait, respond) plus the engine's abort-reason breakdown.
package main

import (
	"flag"
	"fmt"
	"os"
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

// indexName is the secondary index used by -index: the big-endian counter
// field occupying the first 8 bytes of every record.
const indexName = "usertable_by_ctr"

func indexSegs() []silo.IndexSeg {
	return []silo.IndexSeg{{FromValue: true, Off: 0, Len: 8}}
}

// coveringWidth is how many leading record bytes -covering projects into
// the index entries (counter + 8 payload bytes): the scan is then served
// from entry values alone, no primary resolution at all.
const coveringWidth = 16

func coveringIncs() []silo.IndexSeg {
	return []silo.IndexSeg{{FromValue: true, Off: 0, Len: coveringWidth}}
}

// toWireSegs converts the canonical silo-form specs above for the wire
// client's CREATE_INDEX calls.
func toWireSegs(in []silo.IndexSeg) []wire.IndexSeg {
	segs := make([]wire.IndexSeg, 0, len(in))
	for _, sg := range in {
		segs = append(segs, wire.IndexSeg{FromValue: sg.FromValue, Off: uint16(sg.Off), Len: uint16(sg.Len)})
	}
	return segs
}

func main() {
	var (
		addr      = flag.String("addr", "localhost:4555", "server address")
		clients   = flag.Int("clients", 8, "closed-loop client goroutines")
		conns     = flag.Int("conns", 2, "pooled connections per client")
		duration  = flag.Duration("duration", 5*time.Second, "measured run length")
		keys      = flag.Int("keys", 100000, "key-space size (paper: 160M)")
		valSize   = flag.Int("valuesize", 100, "record size in bytes (paper: 100)")
		readPct   = flag.Int("readpct", 80, "percentage of point ops that are reads (paper: 80)")
		scanFrac  = flag.Float64("scan-frac", 0, "fraction (0..1) of ops that are scans (YCSB-E style)")
		scanLen   = flag.Int("scan-len", 100, "keys per scan")
		hotFrac   = flag.Float64("hot-frac", 0, "fraction (0..1) of point ops directed at the hot key set (0 = uniform, the paper's distribution)")
		hotKeys   = flag.Int("hot-keys", 8, "size of the hot key set -hot-frac draws from")
		useIndex  = flag.Bool("index", false, "route scans through a secondary index on the counter field")
		covering  = flag.Bool("covering", false, "make the scan index covering and serve scans from entry values only (implies -index)")
		snapScan  = flag.Bool("snapshot-scans", false, "run index scans against a consistent snapshot")
		table     = flag.String("table", ycsb.TableName, "table name")
		load      = flag.Bool("load", false, "preload the key space before the run")
		txnOps    = flag.Int("txn", 0, "point ops per multi-op TXN frame (0 = single-op requests)")
		embedded  = flag.Bool("embedded", false, "run against an in-process database instead of a server")
		logDir    = flag.String("logdir", "", "embedded durability directory (default: a temp dir when -checkpoint-interval is set)")
		ckptEvery = flag.Duration("checkpoint-interval", 0, "run the checkpoint daemon under load (embedded; 0 = off)")
		traceFrac = flag.Float64("trace-frac", 0, "fraction (0..1) of point ops issued as TRACE frames with span capture (wire mode)")
		seed      = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()

	cfg := ycsb.Config{
		Keys: *keys, ValueSize: *valSize, ReadPct: *readPct,
		ScanFrac: *scanFrac, ScanLen: *scanLen,
		HotFrac: *hotFrac, HotKeys: *hotKeys,
	}
	if *hotFrac < 0 || *hotFrac > 1 {
		fatal(fmt.Errorf("-hot-frac must be in [0,1]"))
	}
	if *covering {
		*useIndex = true
		if cfg.ValueSize < coveringWidth {
			fatal(fmt.Errorf("-covering projects the first %d record bytes; -valuesize %d is too small", coveringWidth, cfg.ValueSize))
		}
	}
	if *snapScan && !*useIndex {
		fatal(fmt.Errorf("-snapshot-scans requires -index"))
	}
	if (*ckptEvery > 0 || *logDir != "") && !*embedded {
		fatal(fmt.Errorf("-checkpoint-interval and -logdir drive an in-process database: add -embedded (use silo-server's flags for a remote daemon)"))
	}
	if *traceFrac < 0 || *traceFrac > 1 {
		fatal(fmt.Errorf("-trace-frac must be in [0,1]"))
	}
	if *traceFrac > 0 && *embedded {
		fatal(fmt.Errorf("-trace-frac samples TRACE frames over the wire; it has no embedded mode"))
	}

	scanMode := scanModeOf(*useIndex, *covering)
	var db *silo.DB
	var run func(c int, gen *ycsb.Generator, stop *atomic.Bool) (clientResult, error)
	if *embedded {
		db, run = setupEmbedded(cfg, *clients, scanMode, *snapScan, *logDir, *ckptEvery)
	} else {
		run = setupWire(cfg, *addr, *table, *conns, *txnOps, *load, scanMode, *snapScan, *traceFrac)
	}

	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	results := make([]clientResult, *clients)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := ycsb.NewGenerator(cfg, *seed+uint64(c)*7919)
			res, err := run(c, gen, &stop)
			if err != nil {
				fatal(err)
			}
			results[c] = res
		}(c)
	}
	time.Sleep(*duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var agg clientResult
	for i := range results {
		agg.merge(&results[i])
	}
	n := agg.lat.Count
	unit := "txns"
	if !*embedded && *txnOps > 1 {
		unit = fmt.Sprintf("txns (%d ops each)", *txnOps)
	}
	mode := "wire"
	if *embedded {
		mode = "embedded"
	}
	scans := "none"
	if *scanFrac > 0 {
		scans = fmt.Sprintf("%.0f%%×%d primary", *scanFrac*100, *scanLen)
		if *useIndex {
			scans = fmt.Sprintf("%.0f%%×%d index (%s)", *scanFrac*100, *scanLen, scanMode)
			if *snapScan {
				scans += " (snapshot)"
			}
		}
	}
	skew := ""
	if cfg.HotFrac > 0 {
		skew = fmt.Sprintf(" hot=%.0f%%/%d", cfg.HotFrac*100, cfg.HotKeys)
	}
	fmt.Printf("mode=%s clients=%d keyspace=%d mix=%d/%d read/rmw scans=%s%s\n",
		mode, *clients, cfg.Keys, cfg.ReadPct, 100-cfg.ReadPct, scans, skew)
	fmt.Printf("throughput: %.0f %s/sec (%d in %v, %d failed)\n",
		float64(n)/elapsed.Seconds(), unit, n, elapsed.Round(time.Millisecond), agg.fails)
	if agg.lat.Count > 0 {
		fmt.Printf("latency: p50=%v p90=%v p99=%v p99.9=%v\n",
			pctl(agg.lat, 0.50), pctl(agg.lat, 0.90), pctl(agg.lat, 0.99), pctl(agg.lat, 0.999))
	}
	if agg.traced > 0 {
		d := time.Duration(agg.traced)
		sp := &agg.spans
		fmt.Printf("traced %d ops, avg: queue=%v exec=%v validate=%v log=%v fsync=%v respond=%v (%.2f retries/op)\n",
			agg.traced, sp.Queue/d, sp.Exec/d, sp.Validate/d, sp.Log/d, sp.Fsync/d, sp.Respond/d,
			float64(sp.Retries)/float64(agg.traced))
	}
	printAborts(db, *addr, *embedded)
	if db != nil {
		// Close stops the daemon and waits out a tick still checkpointing,
		// so the counts read after it include every set on disk.
		db.Close()
		if ds, ok := db.CheckpointDaemon(); ok {
			fmt.Printf("checkpoint daemon: %d checkpoints (last CE=%d, %d rows, %v), %d skipped, %d failed, %d log segments truncated\n",
				ds.Checkpoints, ds.LastEpoch, ds.LastRows, ds.LastElapsed.Round(time.Millisecond), ds.Skipped, ds.Failed, ds.TruncatedSegments)
			if ds.LastErr != nil {
				fmt.Printf("checkpoint daemon error: %v\n", ds.LastErr)
			}
		}
	}
}

// clientResult is one closed-loop client's tally: a latency histogram
// (bounded memory regardless of run length, unlike the raw sample slice
// it replaced), failure count, and — when TRACE sampling is on — the
// summed span timeline across its traced ops.
type clientResult struct {
	lat    obs.HistSnapshot
	fails  uint64
	spans  silo.TxnSpans
	traced uint64
}

func (r *clientResult) merge(o *clientResult) {
	r.lat.Merge(o.lat)
	r.fails += o.fails
	r.traced += o.traced
	r.spans.Queue += o.spans.Queue
	r.spans.Exec += o.spans.Exec
	r.spans.Validate += o.spans.Validate
	r.spans.Log += o.spans.Log
	r.spans.Fsync += o.spans.Fsync
	r.spans.Respond += o.spans.Respond
	r.spans.Retries += o.spans.Retries
}

func (r *clientResult) addSpans(sp *silo.TxnSpans) {
	r.traced++
	r.spans.Queue += sp.Queue
	r.spans.Exec += sp.Exec
	r.spans.Validate += sp.Validate
	r.spans.Log += sp.Log
	r.spans.Fsync += sp.Fsync
	r.spans.Respond += sp.Respond
	r.spans.Retries += sp.Retries
}

// pctl reads a latency percentile from the merged histogram.
func pctl(s obs.HistSnapshot, q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}

// printAborts reports the engine's abort-reason breakdown after the run:
// embedded runs read the in-process snapshot, wire runs fetch one STATS
// frame. Silence means the breakdown was unavailable (server gone), not
// zero aborts. Wire runs against a durable-group-ack server additionally
// report the group-ack view of the run — when that line is
// present, the throughput number above is durable throughput: every
// counted write was epoch-durable before its ack arrived.
func printAborts(db *silo.DB, addr string, embedded bool) {
	var snap *obs.Snapshot
	if embedded {
		if db == nil {
			return
		}
		snap = db.Observe()
	} else {
		cl, err := client.Dial(addr, client.Options{Conns: 1})
		if err != nil {
			return
		}
		defer cl.Close()
		if snap, err = cl.Stats(); err != nil {
			return
		}
	}
	var total uint64
	line := "aborts:"
	for _, reason := range trace.AbortReasonNames {
		v := snap.Value("silo_core_aborts_total", reason)
		total += v
		line += fmt.Sprintf(" %s=%d", reason, v)
	}
	fmt.Printf("%s (total %d)\n", line, total)
	if h := snap.Get("silo_server_release_lag_ns", ""); h != nil {
		dline := fmt.Sprintf("durable acks: %d writes released at D=%d (parked now=%d)",
			snap.Value("silo_server_released_total", ""),
			snap.Value("silo_wal_durable_epoch", ""),
			snap.Value("silo_server_parked_responses", ""))
		if h.Hist.Count > 0 {
			dline += fmt.Sprintf(", release lag p50=%v p99=%v",
				time.Duration(h.Hist.Quantile(0.50)), time.Duration(h.Hist.Quantile(0.99)))
		}
		fmt.Println(dline)
	}
}

// scanMode names how -index scans resolve rows.
type scanMode int

const (
	scanPrimary  scanMode = iota // no index: primary range scans
	scanBatched                  // index scan resolving rows (default)
	scanCovering                 // covering index scan, no resolution at all
)

func (m scanMode) String() string {
	switch m {
	case scanBatched:
		return "batched"
	case scanCovering:
		return "covering"
	}
	return "primary"
}

func scanModeOf(useIndex, covering bool) scanMode {
	switch {
	case !useIndex:
		return scanPrimary
	case covering:
		return scanCovering
	}
	return scanBatched
}

// ---------------------------------------------------------------------------
// Over-the-wire mode

func setupWire(cfg ycsb.Config, addr, table string, conns, txnOps int, load bool, mode scanMode, snapScan bool, traceFrac float64) func(int, *ycsb.Generator, *atomic.Bool) (clientResult, error) {
	if load {
		if err := preload(addr, table, cfg, conns); err != nil {
			fatal(fmt.Errorf("preload: %w", err))
		}
		fmt.Printf("loaded %d keys of %d bytes into %q\n", cfg.Keys, cfg.ValueSize, table)
	}
	if mode != scanPrimary {
		cl, err := client.Dial(addr, client.Options{Conns: 1})
		if err != nil {
			fatal(fmt.Errorf("dial: %w", err))
		}
		if mode == scanCovering {
			err = cl.CreateIndex(indexName+"_cov", table, false, toWireSegs(indexSegs()), toWireSegs(coveringIncs())...)
		} else {
			err = cl.CreateIndex(indexName, table, false, toWireSegs(indexSegs()))
		}
		if err != nil {
			fatal(fmt.Errorf("create index: %w", err))
		}
		cl.Close()
	}
	// Every 1/traceFrac-th point op goes out as a TRACE frame; the span
	// timelines accumulate into the client's result.
	traceEvery := 0
	if traceFrac > 0 {
		traceEvery = int(1 / traceFrac)
		if traceEvery < 1 {
			traceEvery = 1
		}
	}
	return func(c int, gen *ycsb.Generator, stop *atomic.Bool) (clientResult, error) {
		cl, err := client.Dial(addr, client.Options{Conns: conns})
		if err != nil {
			return clientResult{}, fmt.Errorf("dial: %w", err)
		}
		defer cl.Close()
		var kb []byte
		var res clientResult
		var hist obs.Histogram
		for i := 0; !stop.Load(); i++ {
			t0 := time.Now()
			var err error
			op := gen.Next()
			switch {
			case op.Scan:
				err = runWireScan(cl, table, op, &kb, mode, snapScan)
			case traceEvery > 0 && i%traceEvery == 0:
				var sp *silo.TxnSpans
				sp, err = runTraced(cl, table, gen, op, txnOps, &kb)
				if err == nil {
					res.addSpans(sp)
				}
			case txnOps > 1:
				_, err = buildTxn(cl, table, gen, op, txnOps, &kb).Exec()
			default:
				err = runOp(cl, table, op, &kb)
			}
			if err != nil {
				res.fails++
				continue
			}
			hist.ObserveDuration(time.Since(t0).Nanoseconds())
		}
		res.lat = hist.Snapshot()
		return res, nil
	}
}

// runOp issues one YCSB point operation: GET for reads, ADD for RMWs (the
// server-side equivalent of read-increment-write in one transaction).
func runOp(cl *client.Client, table string, op ycsb.Op, kb *[]byte) error {
	*kb = ycsb.Key(op.Key, *kb)
	if op.Read {
		_, err := cl.Get(table, *kb)
		return err
	}
	_, err := cl.Add(table, *kb, 1)
	return err
}

// indexScanLo builds the entry-key lower bound for an index scan starting
// at op's key: the counter index is non-unique, so entry keys are
// counter ‖ pk, and counters start at zero — (0 ‖ key) therefore begins
// the scan at that user's entry, spreading scan ranges across the whole
// index the way YCSB-E scans spread across the key space (instead of
// every scan hammering the index head).
func indexScanLo(dst []byte, op ycsb.Op) []byte {
	dst = append(dst[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	return ycsb.AppendKey(op.Key, dst)
}

// runWireScan issues one scan: a primary range scan, or an index scan
// through the counter index. Covering mode serves the projected record
// prefix straight from entry values.
func runWireScan(cl *client.Client, table string, op ycsb.Op, kb *[]byte, mode scanMode, snapshot bool) error {
	switch mode {
	case scanCovering:
		*kb = indexScanLo(*kb, op)
		_, err := cl.IndexScanCovering(indexName+"_cov", *kb, nil, op.Len, snapshot)
		return err
	case scanBatched:
		*kb = indexScanLo(*kb, op)
		_, err := cl.IndexScan(indexName, *kb, nil, op.Len, snapshot)
		return err
	}
	*kb = ycsb.Key(op.Key, *kb)
	_, err := cl.Scan(table, *kb, nil, op.Len)
	return err
}

// buildTxn batches generated point ops (starting with op) into one
// multi-op transaction builder, ready for Exec or Trace.
func buildTxn(cl *client.Client, table string, gen *ycsb.Generator, op ycsb.Op, n int, kb *[]byte) *client.Txn {
	txn := cl.Txn()
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			for {
				op = gen.Next()
				if !op.Scan { // scans cannot ride inside TXN frames
					break
				}
			}
		}
		*kb = ycsb.Key(op.Key, *kb)
		key := append([]byte(nil), *kb...)
		if op.Read {
			txn.Get(table, key)
		} else {
			txn.Add(table, key, 1)
		}
	}
	return txn
}

// runTraced issues the op (or txnOps-sized batch) as a TRACE frame and
// returns the server's span timeline for it.
func runTraced(cl *client.Client, table string, gen *ycsb.Generator, op ycsb.Op, txnOps int, kb *[]byte) (*silo.TxnSpans, error) {
	_, sp, err := buildTxn(cl, table, gen, op, txnOps, kb).Trace()
	return sp, err
}

// preload inserts the key space through the wire in batched TXN frames,
// fanned out over a few loader goroutines.
func preload(addr, table string, cfg ycsb.Config, conns int) error {
	const loaders = 4
	const batch = 128
	var wg sync.WaitGroup
	errc := make(chan error, loaders)
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Options{Conns: conns})
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			var kb []byte
			for lo := l * batch; lo < cfg.Keys; lo += loaders * batch {
				hi := lo + batch
				if hi > cfg.Keys {
					hi = cfg.Keys
				}
				txn := cl.Txn()
				for i := lo; i < hi; i++ {
					kb = ycsb.Key(uint64(i), kb)
					// Fresh buffers: the Txn holds every op's slices
					// until Exec encodes the frame.
					val := make([]byte, cfg.ValueSize)
					val[len(val)-1] = byte(i)
					txn.Insert(table, append([]byte(nil), kb...), val)
				}
				if _, err := txn.Exec(); err != nil {
					errc <- fmt.Errorf("batch at %d: %w", lo, err)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// Embedded mode

// setupEmbedded opens an in-process database with one worker per client,
// loads the key space, optionally creates the counter index (through the
// same backfill path a remote CREATE_INDEX takes), and returns a runner
// executing the identical op mix directly on the engine. With ckptEvery
// set, durability and the background checkpoint daemon run under the
// load, so checkpointing's interference with p50/p99 latency shows up in
// the standard report.
func setupEmbedded(cfg ycsb.Config, clients int, mode scanMode, snapScan bool, logDir string, ckptEvery time.Duration) (*silo.DB, func(int, *ycsb.Generator, *atomic.Bool) (clientResult, error)) {
	opts := silo.Options{Workers: clients}
	if ckptEvery > 0 || logDir != "" {
		if logDir == "" {
			var err error
			logDir, err = os.MkdirTemp("", "silo-loadgen")
			if err != nil {
				fatal(err)
			}
			fmt.Printf("durability dir: %s\n", logDir)
		}
		opts.Durability = &silo.DurabilityOptions{
			Dir:                logDir,
			Loggers:            2,
			SegmentBytes:       16 << 20,
			CheckpointInterval: ckptEvery,
		}
	}
	db, err := silo.Open(opts)
	if err != nil {
		fatal(err)
	}
	tbl := ycsb.LoadSilo(db, cfg)
	fmt.Printf("loaded %d keys of %d bytes (embedded)\n", cfg.Keys, cfg.ValueSize)
	var ix *silo.Index
	if mode != scanPrimary {
		if mode == scanCovering {
			ix, err = db.CreateIndexSpec(0, tbl, indexName+"_cov", false, indexSegs(), coveringIncs()...)
		} else {
			ix, err = db.CreateIndexSpec(0, tbl, indexName, false, indexSegs())
		}
		if err != nil {
			fatal(fmt.Errorf("create index: %w", err))
		}
	}
	return db, func(c int, gen *ycsb.Generator, stop *atomic.Bool) (clientResult, error) {
		w := db.Store().Worker(c)
		var kb []byte
		var res clientResult
		var hist obs.Histogram
		for !stop.Load() {
			t0 := time.Now()
			op := gen.Next()
			ok := true
			if op.Scan && ix != nil {
				kb = indexScanLo(kb, op)
				ok = runEmbeddedIndexScan(db, c, ix, kb, op.Len, mode, snapScan)
			} else {
				ok, kb = ycsb.RunSiloOp(w, tbl, op, kb)
			}
			if !ok {
				res.fails++
				continue
			}
			hist.ObserveDuration(time.Since(t0).Nanoseconds())
		}
		res.lat = hist.Snapshot()
		return res, nil
	}
}

// runEmbeddedIndexScan reads up to n entries through the counter index
// starting at entry key lo — resolving rows, or serving the covering
// projection straight from entry values — serializably or at a snapshot.
func runEmbeddedIndexScan(db *silo.DB, worker int, ix *silo.Index, lo []byte, n int, mode scanMode, snapshot bool) bool {
	visit := func(_, _, _ []byte) bool { return true }
	scan := func(r silo.Reader) error {
		if mode == scanCovering {
			return silo.ScanIndexCovering(r, ix, lo, nil, n, visit)
		}
		return silo.ScanIndexBatched(r, ix, lo, nil, n, visit)
	}
	if snapshot {
		return db.RunSnapshot(worker, func(stx *silo.SnapTx) error { return scan(stx) }) == nil
	}
	return db.RunNoRetry(worker, func(tx *silo.Tx) error { return scan(tx) }) == nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "silo-loadgen:", err)
	os.Exit(1)
}
