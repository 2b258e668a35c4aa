// Command silo-server serves a silo database over TCP, speaking the binary
// protocol of package wire. Each request runs as a one-shot serializable
// transaction on one of the database's workers; conflicts retry server-side.
//
// Usage:
//
//	silo-server -addr :4555 -workers 8
//	silo-server -addr :4555 -tables accounts,audit -logdir /var/lib/silo -sync
//	silo-server -addr :4555 -tables accounts -logdir /var/lib/silo \
//	    -checkpoint-interval 1m -segment-bytes 67108864
//
// Without -logdir the server runs as MemSilo (no persistence). With it,
// committed transactions are redo-logged and group-committed, and every
// DDL action — table creation, CREATE_INDEX — is recorded in the durable
// schema catalog. Starting over an existing -logdir recovers it before
// serving: the full schema (tables, indexes, covering include lists,
// key-spec transforms) is reconstructed from disk and printed with the
// recovery report, no re-declaration flags needed. -tables remains as a
// convenience for creating fresh tables at startup (it runs after recovery
// and is idempotent for recovered names).
// -checkpoint-interval additionally runs the background checkpoint
// daemon: partitioned checkpoints off snapshot epochs while the server
// keeps serving, a forced log rotation after each checkpoint, and
// automatic truncation of covered segments (recovery then replays only
// the log suffix beyond the newest checkpoint, in parallel).
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"silo"
	"silo/internal/recovery"
	"silo/internal/trace"
	"silo/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":4555", "TCP listen address")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker contexts (one per core)")
		epoch     = flag.Duration("epoch", 40*time.Millisecond, "epoch interval (paper: 40ms): the longest an epoch stays open; under durable group acks epochs close as soon as the previous one is durable")
		tables    = flag.String("tables", "", "comma-separated tables to create at startup")
		logDir    = flag.String("logdir", "", "durability directory (empty = no persistence)")
		loggers   = flag.Int("loggers", 2, "logger threads when -logdir is set")
		doSync    = flag.Bool("sync", false, "fsync log writes")
		ckptEvery = flag.Duration("checkpoint-interval", 0, "background checkpoint daemon period (0 = off; requires -logdir)")
		ckptParts = flag.Int("checkpoint-parts", recovery.DefaultPartitions, "part files per checkpoint, written concurrently")
		segBytes  = flag.Int64("segment-bytes", 64<<20, "log segment rotation size when the daemon runs (0 = no rotation)")
		recovWkrs = flag.Int("recovery-workers", 0, "parallel recovery workers (0 = GOMAXPROCS)")
		pipeline  = flag.Int("pipeline", 128, "per-connection in-flight request cap")
		noCreate  = flag.Bool("no-auto-create", false, "reject unknown tables instead of creating them")
		stats     = flag.Duration("stats", 0, "print stats every interval (0 = off)")
		admin     = flag.String("admin", "", "admin HTTP listen address serving /metrics, /debug/vars, /debug/flight, /debug/slow and /debug/pprof (empty = off)")
		slowMs    = flag.Int("slow-ms", 0, "force-trace every request and capture ops slower than this many milliseconds at /debug/slow (0 = off)")
		ackMode   = flag.String("ack-mode", "auto", "when write responses are released to clients: auto (group under -sync, immediate otherwise), group (hold each write response until its commit epoch is durable — an OK frame then guarantees the write survives a crash), immediate (ack at in-memory commit; the historical behavior, opt-out for -sync)")
	)
	flag.Parse()

	opts := silo.Options{Workers: *workers, EpochInterval: *epoch}
	if *logDir != "" {
		opts.Durability = &silo.DurabilityOptions{
			Dir: *logDir, Loggers: *loggers, Sync: *doSync,
			CheckpointInterval:   *ckptEvery,
			CheckpointPartitions: *ckptParts,
			SegmentBytes:         *segBytes,
			RecoveryWorkers:      *recovWkrs,
		}
	} else if *ckptEvery > 0 {
		fatal(fmt.Errorf("-checkpoint-interval requires -logdir"))
	}
	// With -logdir, Open recovers the directory before it returns; the
	// schema catalog reconstructs every table and index from disk.
	db, err := silo.Open(opts)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if res, err := db.Recover(); err == nil {
		res.WriteReport(os.Stdout, 0)
		printSchema(db)
	}
	// Fresh tables (idempotent for names recovery already reconstructed);
	// runs after recovery so creations append to the recovered catalog.
	for _, name := range strings.Split(*tables, ",") {
		if name = strings.TrimSpace(name); name != "" {
			db.CreateTable(name)
		}
	}

	acks, err := parseAckMode(*ackMode, *doSync, *logDir != "")
	if err != nil {
		fatal(err)
	}

	srv := server.New(db, server.Options{
		Addr:              *addr,
		Pipeline:          *pipeline,
		DisableAutoCreate: *noCreate || *logDir != "",
		SlowThreshold:     time.Duration(*slowMs) * time.Millisecond,
		Acks:              acks,
	})

	// The flight recorder's last seconds are the forensic record of how
	// the process died: dump it on the way out of a panic, and on
	// operator interrupt.
	defer func() {
		if r := recover(); r != nil {
			dumpFlight(db, "panic")
			panic(r)
		}
	}()

	var adminSrv *http.Server
	if *admin != "" {
		adminSrv = &http.Server{Addr: *admin, Handler: srv.AdminHandler()}
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "silo-server: admin:", err)
			}
		}()
		fmt.Printf("admin endpoint on %s (/metrics, /debug/vars, /debug/flight, /debug/slow, /debug/pprof)\n", *admin)
	}

	// The stats printer uses a stoppable Ticker tied to statsDone (a bare
	// time.Tick would leak the goroutine — and keep printing — past
	// srv.Close on shutdown).
	statsDone := make(chan struct{})
	if *stats > 0 {
		tick := time.NewTicker(*stats)
		go func() {
			defer tick.Stop()
			for {
				select {
				case <-statsDone:
					return
				case <-tick.C:
					fmt.Println(statsLine(db, srv))
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "shutting down")
		dumpFlight(db, "shutdown")
		srv.Close()
	}()

	fmt.Printf("silo-server listening on %s (%d workers, durability=%v, acks=%s)\n",
		*addr, *workers, *logDir != "", srv.AckMode())
	err = srv.ListenAndServe()
	close(statsDone)
	if adminSrv != nil {
		adminSrv.Close()
	}
	if err != nil {
		fatal(err)
	}
	var snap silo.ObsSnapshot
	srv.CollectObs(&snap)
	fmt.Printf("served %d requests on %d connections (%d errors)\n",
		snap.Value("silo_server_requests_total", ""),
		snap.Value("silo_server_conns_total", ""),
		snap.Value("silo_server_errors_total", ""))
}

// parseAckMode maps -ack-mode to the server's ack mode. -sync promises
// clients durability, so auto implies durable acks under it: an OK frame
// is withheld until the write's epoch is durable (group release keeps the
// workers pipelined). immediate opts back into ack-at-memory-commit.
func parseAckMode(mode string, sync, hasLog bool) (server.AckMode, error) {
	acks := server.AckImmediate
	switch mode {
	case "auto":
		if sync && hasLog {
			acks = server.AckGroup
		}
	case "group":
		acks = server.AckGroup
	case "immediate":
	default:
		return 0, fmt.Errorf("unknown -ack-mode %q (auto, group, immediate)", mode)
	}
	if acks != server.AckImmediate && !hasLog {
		return 0, fmt.Errorf("-ack-mode %s requires -logdir (durable acks need a log)", acks)
	}
	return acks, nil
}

// dumpFlight writes the flight recorder's merged event timeline — with
// the hottest-conflicting-keys summary — to stderr; why labels the
// occasion (shutdown, panic).
func dumpFlight(db *silo.DB, why string) {
	events := db.Flight().Dump()
	if len(events) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "--- flight recorder dump (%s) ---\n", why)
	trace.WriteText(os.Stderr, events, flightNamer(db))
}

// flightNamer resolves table ids against the live schema for flight
// rendering.
func flightNamer(db *silo.DB) trace.TableNamer {
	m := map[uint32]string{}
	for _, t := range db.Tables() {
		m[t.ID] = t.Name
	}
	return func(id uint32) string { return m[id] }
}

// statsLine renders one periodic stats line from the same cross-layer
// snapshot the STATS frame and the admin endpoint serve.
func statsLine(db *silo.DB, srv *server.Server) string {
	snap := db.Observe()
	srv.CollectObs(snap)
	var aborts uint64
	for _, reason := range trace.AbortReasonNames {
		aborts += snap.Value("silo_core_aborts_total", reason)
	}
	line := fmt.Sprintf("conns=%d requests=%d errors=%d commits=%d aborts=%d",
		snap.Value("silo_server_conns_total", ""),
		snap.Value("silo_server_requests_total", ""),
		snap.Value("silo_server_errors_total", ""),
		snap.Value("silo_core_commits_total", ""), aborts)
	if s := snap.Get("silo_wal_durable_epoch", ""); s != nil {
		// demand = epochs closed early for a durability waiter.
		line += fmt.Sprintf(" durable_epoch=%d lag=%d demand=%d",
			s.Value, snap.Value("silo_wal_durable_lag_epochs", ""),
			snap.Value("silo_epoch_advances_total", "demand"))
		if h := snap.Get("silo_wal_fsync_ns", ""); h != nil && h.Hist.Count > 0 {
			line += fmt.Sprintf(" fsync_p99=%v", time.Duration(h.Hist.Quantile(0.99)))
		}
	}
	// Group-ack health (present only under durable group acks): write
	// responses awaiting their epoch and the wait released ones paid.
	if s := snap.Get("silo_server_parked_responses", ""); s != nil {
		line += fmt.Sprintf(" parked=%d", s.Value)
		if h := snap.Get("silo_server_release_lag_ns", ""); h != nil && h.Hist.Count > 0 {
			line += fmt.Sprintf(" release_p99=%v", time.Duration(h.Hist.Quantile(0.99)))
		}
	}
	if _, ok := db.CheckpointDaemon(); ok {
		line += fmt.Sprintf(" checkpoints=%d last_ce=%d truncated=%d",
			snap.Value("silo_ckpt_completed_total", ""),
			snap.Value("silo_ckpt_last_epoch", ""),
			snap.Value("silo_ckpt_truncated_segments_total", ""))
	}
	// The flight recorder's abort forensics, folded down to the three
	// hottest conflict sites still in the ring.
	if hot := trace.TopConflicts(db.Flight().Dump(), 3); len(hot) > 0 {
		namer := flightNamer(db)
		line += " hot="
		for i := range hot {
			if i > 0 {
				line += ","
			}
			name := namer(hot[i].Table)
			if name == "" {
				name = fmt.Sprintf("t%d", hot[i].Table)
			}
			line += fmt.Sprintf("%s:%q:%d", name, hot[i].PrefixString(), hot[i].Count)
		}
	}
	return line
}

// printSchema prints the recovered schema: tables in id order, then index
// declarations.
func printSchema(db *silo.DB) {
	fmt.Println("recovered schema:")
	for _, t := range db.Tables() {
		if t.Name == silo.CatalogTableName {
			continue
		}
		kind := "table"
		if db.Index(t.Name) != nil {
			kind = "index"
		}
		fmt.Printf("  %-5s id=%-3d %-24s %d keys\n", kind, t.ID, t.Name, t.Tree.Len())
	}
	for _, ix := range db.Indexes() {
		attrs := ""
		if ix.Unique {
			attrs += " unique"
		}
		if ix.Covering() {
			attrs += fmt.Sprintf(" covering(%d segs)", len(ix.Include))
		}
		attrs += fmt.Sprintf(" spec(%d segs)", len(ix.Spec))
		fmt.Printf("  index %s on %s:%s\n", ix.Name, ix.On.Name, attrs)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "silo-server:", err)
	os.Exit(1)
}
