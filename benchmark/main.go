// Command benchmark is the repository's one benchmark: five named
// workloads, each reporting the same end-to-end metrics (untraced) and the
// same per-layer metrics (traced), with the outputs of every run verified.
// BENCHMARK.json at the repository root names the command, the workloads
// and the metrics; README.md in this directory explains them.
//
// With -workload it runs that one workload in this process and prints, as
// the last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. Without it, it runs every workload, traced
// and untraced, each in a fresh child process of this same binary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// config is what the command line asks of one workload run.
type config struct {
	workload   string
	seed       uint64
	seconds    time.Duration
	trace      bool
	smoke      bool
	dir        string // where log directories are made; inside the checkout
	traceOut   string
	allowTmpfs bool
}

// sizing is what does not depend on the workload.
type sizing struct {
	warm      time.Duration // load issued before measuring: caches filled, arenas grown
	setupReps int           // set-ups timed per run; setup_s is their median
}

// defaultSeconds is the measured interval, BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// maxProcs caps W: the workloads are sized for a small box, and a fixed
// cap keeps their shape the same on a larger one.
const maxProcs = 4

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run) error
}

var workloads = []workloadDef{
	{"tpcc.embedded", "TPC-C standard mix on an embedded MemSilo, one warehouse per worker: core commit, btree and index do the work; client, wire, server, wal and recovery do none, so changes there must not move it", runTpccEmbedded},
	{"ycsb.wire", "80% GET / 20% ADD over 1M uniform 100 B rows (~150 MB, far beyond cache), one op per frame over loopback, window 8 per connection, no log: client, TCP, wire codec and server dominate; wal idle", runYcsbWire},
	{"ycsb.durable", "4-PUT TXN frames over 100k keys to a Sync:true server, 40 ms epoch, group acks, window 64 per connection: latency is the durable-ack path (epoch tick, wal fsync, release queue)", runYcsbDurable},
	{"scan.wire", "90% resolving 100-row IndexScan, 10% Insert, 200k keys, window 4 per connection, no log: index resolve, btree range scan and ISCANR codec dominate; the inserts price index maintenance", runScanWire},
	{"recovery.replay", "Open+Recover of a seeded log image (100k-row checkpoint + 250k logged 2-write transactions) on fresh copies, repeated: the only workload where recovery and the wal reader do the work", runRecoveryReplay},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// closer is a set-up product that can be torn down again.
type closer interface{ close() }

// setupMedian sets the workload up and records setup_s. An untraced run
// sets up r.size.setupReps times — tearing each but the last down again —
// and reports the median, because a single set-up is a single sample and
// a later change that moves work into set-up has to show against it.
func setupMedian[T closer](r *run, setup func() (T, error)) (T, error) {
	reps := r.size.setupReps
	if r.cfg.trace {
		reps = 1
	}
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		env, err := setup()
		if err != nil {
			return env, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			env.close()
		}
		// Every set-up, and then the load, starts from a collected heap:
		// the garbage of one is not marked on the other's time.
		runtime.GC()
		if i == reps-1 {
			r.setN("setup_s", median(times), len(times))
			r.mark("phase_setup")
			return env, nil
		}
	}
}

// procs is W = min(nproc, 4); a GOMAXPROCS above nproc would time-slice
// workers that the engine assumes run on their own cores.
func procs() (int, error) {
	n := runtime.NumCPU()
	if s := os.Getenv("GOMAXPROCS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > n {
			return 0, fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available", v, n)
		}
	}
	return min(n, maxProcs), nil
}

// result is the last line of a single-workload run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs cfg.workload in this process.
func runOne(cfg config) (*run, error) {
	def := findWorkload(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	w, err := procs()
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(w)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	r := &run{
		cfg:     cfg,
		procs:   w,
		size:    sizing{warm: 2 * time.Second, setupReps: 3},
		notes:   map[string]any{},
		metrics: map[string]float64{},
		samples: map[string]int{},
		began:   time.Now(),
	}
	r.marked = r.began
	if cfg.smoke {
		r.size = sizing{warm: 200 * time.Millisecond, setupReps: 1}
	}
	if err := def.run(r); err != nil {
		return r, err
	}
	r.mark("phase_verify")
	r.set("peak_rss_mb", peakRSSMB())
	r.set("failed_frac", ratio(float64(r.failed), float64(r.attempted)))
	if cfg.traceOut != "" {
		if err := r.writeSpans(cfg.traceOut); err != nil {
			return r, fmt.Errorf("write spans: %w", err)
		}
	}
	return r, nil
}

// header is printed before the metrics of a single-workload run, and
// collected by the suite into its output file.
type header struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	Smoke    bool           `json:"smoke,omitempty"`
	Procs    int            `json:"procs"`
	Params   any            `json:"params"`
	Notes    map[string]any `json:"notes,omitempty"`
	Samples  map[string]int `json:"samples,omitempty"`
}

func main() {
	var cfg config
	var trace, aa int
	var seconds float64
	var out string
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in-process (default: all, each in a child process)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", defaultSeconds, "measured interval per workload")
	flag.IntVar(&trace, "trace", 0, "with -workload: 0 measures untraced and reports the end-to-end metrics, 1 runs the traced pass and reports the per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny key spaces and short warm-up: checks that everything runs and verifies, measures nothing worth reading")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "data"), "directory for log directories (removed afterwards)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the traced pass's spans here as JSON lines (suite: one file per workload, suffixed with its name)")
	flag.BoolVar(&cfg.allowTmpfs, "allow-tmpfs", false, "suite: run even when the data directory is on tmpfs, where ycsb.durable's fsyncs are free (recorded in the output)")
	flag.StringVar(&out, "out", "", "suite: write every metric of every workload, with the environment, to this JSON file")
	flag.IntVar(&aa, "aa", 0, "run the untraced suite N times on this same code, with seeds seed..seed+N-1, and fail if any end-to-end metric spreads beyond its bound")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0

	if cfg.workload == "" {
		var err error
		if aa > 0 {
			err = runAA(cfg, aa)
		} else {
			err = runSuite(cfg, out)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	r, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	hdr, _ := json.Marshal(header{Workload: cfg.workload, Seed: cfg.seed, Seconds: seconds, Traced: cfg.trace, Smoke: cfg.smoke,
		Procs: r.procs, Params: r.params, Notes: r.notes, Samples: r.samples})
	fmt.Printf("run %s\n", hdr)
	r.print(os.Stdout)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED CHECK:", p)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range r.reported() {
		res.Metrics[d.Name] = metricValue{Value: r.metrics[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
