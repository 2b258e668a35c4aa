// Command silo-bench regenerates every table and figure of the paper's
// evaluation (§5) at laptop scale. Each experiment prints the same rows or
// series the paper plots; absolute numbers depend on hardware, but the
// shapes — who wins, by what factor, where the crossovers fall — are the
// reproduction target. It is the only harness of those experiments, and
// every store it measures is opened with silo.Open (README, "Reproducing
// the paper's experiments").
//
// -exp ycsb, not part of all, is the module's YCSB load generator: the
// §5.2 mix against an embedded MemSilo (durable into -logdir when -logdir
// or -checkpoint-interval is given), or against a silo-server at -addr,
// with scans through the primary table or a counter index, TXN frames,
// TRACE sampling and a hot key set. Each -workers count is one row, with
// latency percentiles and failed ops; then come the store's abort reasons
// and, when it has them, its durable acks and checkpoint daemon.
//
// Usage:
//
//	silo-bench -exp all
//	silo-bench -exp fig4 -seconds 2 -workers 1,2,4,8
//	silo-bench -exp fig8 -wh 8
//	silo-bench -exp fig11
//	silo-bench -exp ycsb -workers 8 -scan-frac 0.5 -index -snapshot-scans
//	silo-bench -exp ycsb -addr localhost:4555 -load -keys 100000 -workers 16 -seconds 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

type config struct {
	seconds time.Duration
	warmup  time.Duration
	runs    int
	workers []int
	keys    int
	wh      int
	full    bool
	logDir  string
	loggers int
	sync    bool
	ycsb    ycsbFlags
}

func main() {
	if err := bench(); err != nil {
		fmt.Fprintln(os.Stderr, "silo-bench:", err)
		os.Exit(1)
	}
}

// bench parses the flags and runs -exp; a temporary -logdir is removed
// when it returns.
func bench() error {
	var cfg config
	y := &cfg.ycsb
	exp := flag.String("exp", "all", "experiment: all, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, space, or ycsb (not in all)")
	seconds := flag.Float64("seconds", 1.0, "measured seconds per point")
	warmup := flag.Float64("warmup", 0.25, "warmup seconds per point")
	workers := flag.String("workers", "1,2,4,8", "worker counts for sweeps")
	flag.IntVar(&cfg.runs, "runs", 1, "runs per point (median reported)")
	flag.IntVar(&cfg.keys, "keys", 200000, "YCSB tree size (paper: 160M)")
	flag.IntVar(&cfg.wh, "wh", 8, "warehouses for fixed-size TPC-C experiments (paper: 28)")
	flag.BoolVar(&cfg.full, "fullscale", false, "use full TPC-C cardinalities (100k items, 3k customers)")
	flag.StringVar(&cfg.logDir, "logdir", "", "log directory for persistence experiments (default: temp dir); ycsb logs into it and keeps it")
	flag.IntVar(&cfg.loggers, "loggers", 2, "logger threads for persistence experiments (paper: 4)")
	flag.BoolVar(&cfg.sync, "sync", false, "fsync log writes")
	flag.IntVar(&y.mix.ReadPct, "readpct", 80, "ycsb: percentage of point ops that are reads (paper: 80)")
	flag.IntVar(&y.mix.ValueSize, "valuesize", 100, "ycsb: record size in bytes (paper: 100)")
	flag.Float64Var(&y.mix.ScanFrac, "scan-frac", 0, "ycsb: fraction (0..1) of ops that are scans (YCSB-E style)")
	flag.IntVar(&y.mix.ScanLen, "scan-len", 100, "ycsb: keys per scan")
	flag.Float64Var(&y.mix.HotFrac, "hot-frac", 0, "ycsb: fraction (0..1) of point ops on the hot key set (0 = uniform, the paper's)")
	flag.IntVar(&y.mix.HotKeys, "hot-keys", 8, "ycsb: size of the hot key set")
	flag.BoolVar(&y.index, "index", false, "ycsb: scans read a secondary index on the record's counter")
	flag.BoolVar(&y.covering, "covering", false, "ycsb: the index is covering, and scans read entry values only (implies -index)")
	flag.BoolVar(&y.snapshot, "snapshot-scans", false, "ycsb: index scans read a consistent snapshot")
	flag.DurationVar(&y.ckptEvery, "checkpoint-interval", 0, "ycsb: run the checkpoint daemon under load (embedded, durable; 0 = off)")
	flag.StringVar(&y.addr, "addr", "", "ycsb: silo-server address (empty: an embedded MemSilo)")
	flag.IntVar(&y.conns, "conns", 2, "ycsb: connections per worker (wire)")
	flag.IntVar(&y.txn, "txn", 0, "ycsb: point ops per TXN frame (wire; 0 = single-op requests)")
	flag.BoolVar(&y.load, "load", false, "ycsb: preload the key space over the wire (embedded runs always load)")
	flag.Float64Var(&y.traceFrac, "trace-frac", 0, "ycsb: fraction (0..1) of point ops sent as TRACE frames (wire)")
	flag.Parse()
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.warmup = time.Duration(*warmup * float64(time.Second))
	y.keepLog = cfg.logDir != ""

	for _, part := range strings.Split(*workers, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad -workers element %q\n", part)
			os.Exit(2)
		}
		cfg.workers = append(cfg.workers, n)
	}
	if cfg.logDir == "" {
		dir, err := os.MkdirTemp("", "silo-bench-log")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.logDir = dir
	}

	all := map[string]func(config){
		"fig4":  fig4,
		"fig5":  fig5and6,
		"fig6":  fig5and6,
		"fig7":  fig7,
		"fig8":  fig8,
		"fig9":  fig9,
		"fig10": fig10,
		"fig11": fig11,
		"space": spaceOverhead,
	}
	switch *exp {
	case "all":
		// fig5 covers fig6 (same run, per-core view).
		for _, name := range []string{"fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "space"} {
			all[name](cfg)
		}
	case "ycsb":
		return ycsbExp(cfg, os.Stdout)
	default:
		fn, ok := all[*exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		fn(cfg)
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}
