// Command silo-bench regenerates every table and figure of the paper's
// evaluation (§5) at laptop scale. Each experiment prints the same rows or
// series the paper plots; absolute numbers depend on hardware, but the
// shapes — who wins, by what factor, where the crossovers fall — are the
// reproduction target. It is the only harness of those experiments, and
// every store it measures is opened with silo.Open (README, "Reproducing
// the paper's experiments").
//
// Usage:
//
//	silo-bench -exp all
//	silo-bench -exp fig4 -seconds 2 -workers 1,2,4,8
//	silo-bench -exp fig8 -wh 8
//	silo-bench -exp fig11
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
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, space")
		seconds = flag.Float64("seconds", 1.0, "measured seconds per point")
		warmup  = flag.Float64("warmup", 0.25, "warmup seconds per point")
		runs    = flag.Int("runs", 1, "runs per point (median reported)")
		workers = flag.String("workers", "1,2,4,8", "worker counts for sweeps")
		keys    = flag.Int("keys", 200000, "YCSB tree size (paper: 160M)")
		wh      = flag.Int("wh", 8, "warehouses for fixed-size TPC-C experiments (paper: 28)")
		full    = flag.Bool("fullscale", false, "use full TPC-C cardinalities (100k items, 3k customers)")
		logDir  = flag.String("logdir", "", "log directory for persistence experiments (default: temp dir)")
		loggers = flag.Int("loggers", 2, "logger threads for persistence experiments (paper: 4)")
		doSync  = flag.Bool("sync", false, "fsync log writes")
	)
	flag.Parse()

	cfg := config{
		seconds: time.Duration(*seconds * float64(time.Second)),
		warmup:  time.Duration(*warmup * float64(time.Second)),
		runs:    *runs,
		keys:    *keys,
		wh:      *wh,
		full:    *full,
		logDir:  *logDir,
		loggers: *loggers,
		sync:    *doSync,
	}
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
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
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
	default:
		fn, ok := all[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		fn(cfg)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}
