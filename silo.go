// Package silo is a from-scratch Go implementation of Silo, the
// multicore in-memory OLTP database of Tu, Zheng, Kohler, Liskov and Madden,
// "Speedy Transactions in Multicore In-Memory Databases" (SOSP 2013).
//
// Silo executes serializable transactions with a variant of optimistic
// concurrency control whose commit protocol performs no shared-memory
// writes for records that were only read and has no centralized contention
// point of any kind — not even transaction-ID assignment. Time is divided
// into epochs; epoch boundaries are the only externally known points of the
// serial order, which makes logging, group commit, recovery, read-only
// snapshot transactions, and RCU-style garbage collection all cheap and
// scalable.
//
// # Quick start
//
//	db, _ := silo.Open(silo.Options{Workers: 4})
//	defer db.Close()
//	accounts := db.CreateTable("accounts")
//
//	// One-shot request on worker 0: transfer with serializable isolation.
//	err := db.Run(0, func(tx *silo.Tx) error {
//		v, err := tx.Get(accounts, []byte("alice"))
//		if err != nil { return err }
//		return tx.Put(accounts, []byte("alice"), newBalance(v))
//	})
//
// Each worker executes one transaction at a time (run one goroutine per
// worker, as Silo runs one worker per core). Any worker can access the
// whole database: Silo is a shared-memory design, not a partitioned one.
//
// Transactions that lose a conflict return ErrConflict from Commit;
// DB.Run retries them automatically. Read-only work that can tolerate
// slightly stale data should use DB.RunSnapshot, which reads a recent
// consistent snapshot, never blocks writers, and never aborts.
//
// With Options.Durability set, committed transactions are redo-logged by
// background logger threads and group-committed at epoch granularity, and
// Open over an existing directory recovers it before returning;
// DB.RunDurable does not return until the transaction's epoch is durable,
// which is the paper's client-visible commit point.
//
// # Secondary indexes
//
// Following §4.7 of the paper, a secondary index is an ordinary table
// mapping secondary keys to primary keys, maintained inside the same
// commit. DB.CreateIndexSpec automates the pattern: declare an index with
// a key spec — fixed-position segments of the primary key or the value —
// and from then on every Put/Insert/Delete on the table transparently
// expands the transaction's write-set with the matching index-table
// entries, so index consistency inherits serializability, durability, and
// recovery. Existing rows are folded in by a transactional backfill.
// ScanIndex resolves secondary keys to rows; it takes a Reader, so the same
// call reads the index with phantom protection on both trees inside Run,
// or at a consistent snapshot inside RunSnapshot.
//
//	users := db.CreateTable("users")
//	byCity, _ := db.CreateIndexSpec(0, users, "users_by_city", false,
//	    []silo.IndexSeg{{FromValue: true, Off: 0, Len: 4}})
//	visit := func(city, pk, row []byte) bool { ...; return true }
//	err := db.Run(0, func(tx *silo.Tx) error {
//	    return silo.ScanIndex(tx, byCity, []byte("AMS\x00"), []byte("AMT\x00"), visit)
//	})
//	err = db.RunSnapshot(0, func(stx *silo.SnapTx) error {
//	    return silo.ScanIndex(stx, byCity, []byte("AMS\x00"), []byte("AMT\x00"), visit)
//	})
package silo

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"silo/internal/catalog"
	"silo/internal/core"
	"silo/internal/index"
	"silo/internal/recovery"
	"silo/internal/tid"
	"silo/internal/trace"
	"silo/internal/vfs"
	"silo/internal/wal"
)

// Errors returned by transaction operations. They alias the engine's
// sentinels, so errors.Is works across layers (package client wraps these
// same values, so a sentinel check holds end to end over the wire).
var (
	ErrNotFound   = core.ErrNotFound
	ErrKeyExists  = core.ErrKeyExists
	ErrConflict   = core.ErrConflict
	ErrTxDone     = core.ErrTxDone
	ErrKeyInvalid = core.ErrKeyInvalid
	// ErrNoTable reports an operation against a table name that does not
	// exist (used by the networked front end; embedded callers hold *Table
	// handles).
	ErrNoTable = errors.New("silo: no such table")
	// ErrNoIndex reports an operation against an index name that does not
	// exist.
	ErrNoIndex = index.ErrNoIndex
	// ErrNotCovering reports a covering scan of an index declared without
	// an include list.
	ErrNotCovering = index.ErrNotCovering
	// ErrDanglingEntry reports an index entry without its primary row.
	ErrDanglingEntry = index.ErrDanglingEntry
)

// Options configures a database.
type Options struct {
	// Workers is the number of worker contexts, nominally one per core.
	// Worker i is driven by at most one goroutine at a time.
	Workers int
	// EpochInterval is the epoch advance period; the paper uses 40 ms. It
	// is the ceiling on an epoch's length, not its length: while someone
	// waits for durability (RunDurable, or WaitDurable — which is how a
	// group-ack server's connection writers wait), the open epoch is closed
	// as soon as the one before it is durable, so a durable commit costs
	// about one fsync pass rather than one interval. Without a waiter
	// epochs advance on the interval alone. Shorter intervals make
	// snapshots fresher.
	EpochInterval time.Duration
	// SnapshotK is the number of epochs per snapshot epoch (paper: 25).
	SnapshotK int

	// Durability enables redo logging and group commit; nil runs as
	// MemSilo (no persistence).
	Durability *DurabilityOptions

	// The remaining fields disable individual Silo mechanisms; they exist
	// for the paper's factor analysis (Figure 11) and for benchmarking, and
	// should be left false in normal use.

	// DisableSnapshots stops retention of superseded record versions;
	// RunSnapshot must not be used when set.
	DisableSnapshots bool
	// DisableGC stops reclamation of superseded versions and deleted keys.
	DisableGC bool
	// DisableOverwrites allocates fresh storage for every write instead of
	// updating records in place.
	DisableOverwrites bool
	// DisableArena bypasses the per-worker slab allocator.
	DisableArena bool
	// GlobalTID assigns commit TIDs from one shared counter (the paper's
	// MemSilo+GlobalTID scalability strawman).
	GlobalTID bool

	// Clock drives every background ticker — the epoch advancer, the logger
	// poll loops, and the checkpoint daemon. Nil means real time. The
	// deterministic simulation harness (internal/sim) substitutes a manually
	// stepped clock so background activity becomes explicit, replayable
	// events.
	Clock vfs.Clock
}

// DurabilityOptions configures the logging subsystem (§4.10 of the paper)
// and the parallel recovery subsystem built on it (internal/recovery).
type DurabilityOptions struct {
	// Dir holds the log files (one per logger) and checkpoints.
	Dir string
	// Loggers is the number of logger threads; workers are assigned
	// round-robin. Default 1.
	Loggers int
	// Sync fsyncs after each logger pass that wrote data.
	Sync bool
	// TIDOnly logs each transaction's TID and none of its writes (Figure 11
	// "+SmallRecs", an upper bound on any logging scheme). Such a log cannot
	// be replayed, so Open refuses TIDOnly over a directory that already
	// holds logged transactions, and together with CheckpointInterval.
	TIDOnly bool
	// Compress DEFLATE-compresses log buffers (Figure 11 "+Compress"). It
	// configures writing only: compressed frames say so themselves, so
	// recovery, TruncateLogs and cmd/silo-recover read any mix of both, and
	// a directory may be reopened with the setting changed.
	Compress bool

	// SegmentBytes rotates each logger to a fresh log segment
	// (log.<id>.<seq>) once its current segment exceeds this size. Closed
	// segments are immutable, which is what lets the checkpoint daemon
	// truncate fully-covered ones while loggers keep writing. 0 disables
	// rotation — and with it, live truncation.
	SegmentBytes int64

	// CheckpointInterval enables the background checkpoint daemon: every
	// interval it writes a partitioned checkpoint off a snapshot epoch
	// (never blocking writers), prunes superseded checkpoint sets, and
	// deletes log segments whose transactions all predate the checkpoint.
	// Requires snapshots and a replayable log (not TIDOnly). The daemon
	// starts at the end of Open, after recovery, so a checkpoint can never
	// truncate data that has not been replayed. 0 disables the daemon
	// (checkpoints are taken manually with DB.Checkpoint).
	CheckpointInterval time.Duration
	// CheckpointPartitions is the number of concurrent partition writers
	// per checkpoint (both for the daemon and DB.Checkpoint). Default 4.
	CheckpointPartitions int
	// RecoveryWorkers is the parallelism of the recovery Open runs:
	// checkpoint part loading and log replay both fan out across this many
	// goroutines. Default GOMAXPROCS; 1 recovers on a single goroutine.
	RecoveryWorkers int

	// FS is the filesystem the log, checkpoints, and recovery go through;
	// nil means the real one. The simulation harness substitutes its
	// fault-injecting in-memory filesystem (internal/sim); with no fault
	// armed that is also the paper's Silo+tmpfs configuration — the same
	// logger without the device (Figure 7).
	FS vfs.FS

	// LegacyStopDrain reverts Close's log drain to its historical behavior,
	// which could silently discard the final epoch's acknowledged commits
	// on a clean shutdown (the drain flushed buffers but never advanced the
	// epoch, so the last durable-epoch marker stayed one epoch behind).
	// It exists only so the simulation harness can reproduce the bug it
	// was built to catch; never set it.
	LegacyStopDrain bool
}

// DB is a Silo database.
type DB struct {
	store   *core.Store
	wal     *wal.Manager
	catalog *catalog.Catalog
	daemon  *recovery.Daemon
	opts    Options

	// recovered is what the recovery pass Open ran did (nil without
	// Durability), for Recover and Observe.
	recovered *RecoveryResult
}

// Open creates a database. With Durability set it first recovers the
// directory — empty or not — and only then starts logging: the newest
// complete checkpoint and the log suffix beyond it are replayed up to the
// durable epoch D (§4.10), the epoch counter is restarted above the
// recovered epochs, the loggers start, DDL the crash interrupted is
// finished, and the checkpoint daemon starts. No transaction can run
// between opening a directory and recovering it.
//
// Recovery is self-describing: the schema catalog's logged DDL records —
// the checkpoint manifest's schema section, then the log's catalog suffix
// — are replayed before any data row is installed, reconstructing every
// table and index (ids, uniqueness, key specs and transforms, covering
// include lists); the catalog is the only source of schema, and nothing is
// declared beforehand. An empty or missing directory recovers to D = 0.
// If recovery fails — a catalog row that does not decode, an index an
// earlier release declared with a Go key function — Open returns an error
// naming the row or index, with nothing started and nothing written to the
// directory. Recover returns what the pass did.
func Open(opts Options) (*DB, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	copts := core.DefaultOptions(opts.Workers)
	if opts.EpochInterval > 0 {
		copts.EpochInterval = opts.EpochInterval
	}
	if opts.SnapshotK > 0 {
		copts.SnapshotK = opts.SnapshotK
	}
	copts.Snapshots = !opts.DisableSnapshots
	copts.GC = !opts.DisableGC
	copts.Overwrites = !opts.DisableOverwrites
	copts.Arena = !opts.DisableArena
	copts.GlobalTID = opts.GlobalTID
	copts.Clock = opts.Clock

	db := &DB{store: core.NewStore(copts), opts: opts}
	// The schema catalog claims table id 0 before any user table exists;
	// every DDL action routed through this DB is recorded there as an
	// ordinary logged row, which is what makes recovery self-describing.
	db.catalog = catalog.New(db.store)
	if err := db.recoverDir(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// recoverDir is Open's recovery pass (see Open); without Durability there
// is nothing to recover.
func (db *DB) recoverDir() error {
	d := db.opts.Durability
	if d == nil {
		return nil
	}
	if d.Dir == "" {
		return errors.New("silo: Durability.Dir required")
	}
	if d.CheckpointInterval > 0 && db.opts.DisableSnapshots {
		return errors.New("silo: CheckpointInterval requires snapshots")
	}
	if d.CheckpointInterval > 0 && d.TIDOnly {
		return errors.New("silo: CheckpointInterval would truncate a TIDOnly log that cannot be replayed")
	}
	workers := d.RecoveryWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res, err := recovery.Recover(db.store, d.Dir, recovery.Options{
		Workers: workers,
		Schema:  db.catalog,
		FS:      d.FS,
	})
	if err != nil {
		return err
	}
	if d.TIDOnly && (res.TxnsApplied+res.TxnsSkipped+res.TxnsBelowCheckpoint > 0 || res.CheckpointEpoch > 0) {
		return errors.New("silo: TIDOnly over a directory that holds logged transactions: a TID-only log cannot be recovered")
	}
	db.store.Epochs().AdvanceTo(max(res.DurableEpoch, res.CheckpointEpoch) + 1)
	res.IndexesRolledForward, res.IndexesRolledBack, err = db.catalog.FinishRecovery(db.startLogging)
	if err != nil {
		return fmt.Errorf("silo: recovery: %w", err)
	}
	if d.CheckpointInterval > 0 {
		db.startDaemon()
	}
	db.recovered = &res
	return nil
}

// startLogging attaches the loggers to every worker and starts them.
func (db *DB) startLogging() error {
	d := db.opts.Durability
	m, err := wal.Attach(db.store, wal.Config{
		Dir:             d.Dir,
		Loggers:         d.Loggers,
		Sync:            d.Sync,
		TIDOnly:         d.TIDOnly,
		Compress:        d.Compress,
		SegmentBytes:    d.SegmentBytes,
		FS:              d.FS,
		Clock:           db.opts.Clock,
		LegacyStopDrain: d.LegacyStopDrain,
	})
	if err != nil {
		return err
	}
	db.wal = m
	m.Start()
	return nil
}

// startDaemon launches the background checkpoint daemon.
func (db *DB) startDaemon() {
	d := db.opts.Durability
	db.daemon = recovery.NewDaemon(db.store, db.wal, recovery.DaemonOptions{
		Dir:        d.Dir,
		Interval:   d.CheckpointInterval,
		Partitions: d.CheckpointPartitions,
		Catalog:    db.catalog.Table(),
		FS:         d.FS,
		Clock:      db.opts.Clock,
	})
	db.daemon.Start()
}

// Close stops background threads — the checkpoint daemon (waiting out an
// in-flight checkpoint), then the loggers, flushing any buffered log data
// — and finally the engine. All worker goroutines must have finished.
func (db *DB) Close() {
	if db.daemon != nil {
		db.daemon.Stop()
	}
	if db.wal != nil {
		db.wal.Stop()
	}
	db.store.Close()
}

// Table is a named index: an ordered map from byte-string keys (at most 62
// bytes) to byte-string values. Secondary indexes are ordinary tables whose
// values are primary keys, maintained by transaction code (§4.7).
type Table = core.Table

// CatalogTableName is the reserved name of the schema catalog's system
// table (always table id 0). It appears in Tables like any table; reading
// it is allowed (each row is one logged DDL record), but it must never be
// written directly — the network server rejects writes to it, and
// CreateTable refuses the name.
const CatalogTableName = catalog.TableName

// CreateTable creates (or returns) the named table. Tables must be created
// before transactions use them. Creation is recorded in the schema
// catalog as a logged DDL record, so recovery reconstructs the table — at
// its original id — with no re-declaration. The creation itself is not
// transactional (there is no DDL rollback), but the record shares the
// epoch-prefix durability guarantee of every write that follows it.
// The reserved catalog table name returns nil. Safe for concurrent use;
// DDL actions serialize on the catalog.
func (db *DB) CreateTable(name string) *Table {
	t, err := db.catalog.CreateTable(name)
	if err != nil {
		if name == catalog.TableName {
			return nil
		}
		// A failed catalog append means the DDL worker could not commit a
		// single insert into a quiet system table — the database is not in
		// a state where continuing is meaningful.
		panic(fmt.Sprintf("silo: recording table creation: %v", err))
	}
	return t
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.store.Table(name) }

// Tables returns all tables in creation order.
func (db *DB) Tables() []*Table { return db.store.Tables() }

// Index is a declared secondary index (see internal/index). Its entry
// table is an ordinary table — it appears in Tables, is logged,
// checkpointed, and recovered like any other — and its declaration is
// recorded in the schema catalog, so recovery reconstructs it (entry
// table id, uniqueness, key spec, include list).
type Index = index.Index

// IndexSeg is one fixed-position segment of an index key spec or include
// list (see CreateIndexSpec).
type IndexSeg = index.Seg

// Transform flags for IndexSeg.Xform: IndexXformReverse reverses the
// extracted bytes (a little-endian row field becomes a big-endian,
// tree-ordered key field); IndexXformInvert complements them (ascending
// values sort descending — the most-recent-first trick). The flags
// compose, reverse first. They make byte-order-converting indexes — like
// TPC-C's order_cust — expressible as a key spec, so they travel over the
// wire and persist in the schema catalog.
const (
	IndexXformReverse = index.XformReverse
	IndexXformInvert  = index.XformInvert
)

// CreateIndexSpec declares a secondary index named name over table on,
// keyed by a declarative fixed-segment spec: the secondary key is the
// concatenation of the segments (rows too short for a segment are left
// unindexed). It backfills any existing rows in batched transactions on
// the given worker (waiting out transactions that began before the
// declaration, so none can slip an unindexed write past the backfill), and
// keeps the index maintained inside every future transaction that writes
// on. A unique index rejects two rows with the same secondary key (the
// writing transaction aborts with ErrKeyExists). Like CreateTable,
// creation is not transactional; the worker must not be running a
// transaction concurrently. This is also the form clients request over the
// wire. Re-creating an existing index — one recovery rebuilt, say — with
// an identical declaration returns it; a different spec, uniqueness or
// include list under an existing name is an error naming the index.
//
// A non-empty include list makes the index covering: it names
// fixed-position row segments whose bytes are projected into every entry
// value and kept current by the maintenance hooks, so ScanIndexCovering
// serves them without touching the primary table at all. A row too short
// for an include segment is left unindexed, exactly like a row too short
// for a key segment.
func (db *DB) CreateIndexSpec(worker int, on *Table, name string, unique bool, segs []IndexSeg, include ...IndexSeg) (*Index, error) {
	if len(include) == 0 {
		include = nil // an empty include list declares no covering projection
	}
	return db.catalog.CreateIndex(db.store.Worker(worker), on, name, unique, segs, include)
}

// DropIndex withdraws a secondary index: maintenance stops, the entries
// are deleted, and the drop is recorded in the schema catalog so recovery
// does not resurrect it. The entry table's id remains reserved (table ids
// are part of the log format); re-creating an index under the same name
// later reuses it. Like other DDL, dropping is not transactional.
func (db *DB) DropIndex(name string) error { return db.catalog.DropIndex(name) }

// Index returns the named index, or nil (also while its creation is
// still backfilling). The lookup takes no lock.
func (db *DB) Index(name string) *Index { return db.catalog.Index(name) }

// Indexes returns all indexes in creation order.
func (db *DB) Indexes() []*Index { return db.catalog.Indexes() }

// IsEntryTable reports whether the named table holds index entries: a
// live index's, one still backfilling, or one a drop or a failed create
// left behind (the next create of that name adopts it). Only index
// maintenance may write such a table; the network server refuses direct
// writes to it.
func (db *DB) IsEntryTable(name string) bool { return db.catalog.IsEntryTable(name) }

// ScanIndex visits index entries with keys in [lo, hi) in order, resolving
// each to its primary row and calling fn(secondaryKey, primaryKey, value);
// fn returning false stops the scan. It is ScanIndexBatched over the whole
// range. Slices are valid only during the callback.
func ScanIndex(r Reader, ix *Index, lo, hi []byte, fn func(sk, pk, value []byte) bool) error {
	return index.Scan(r, ix, lo, hi, 0, fn)
}

// ScanIndexBatched is ScanIndex bounded to the first max entries (0 means
// the whole range): it collects the entries, then resolves their rows —
// with ordered multi-get descents over the primary tree, one per leaf run,
// or with one point read per entry when the collected primary keys are
// scattered — and calls fn in entry-key order. A caller that wants a
// prefix passes max; fn returning false stops emission, not collection.
//
// Under a Tx the scan is phantom-safe on both trees: a concurrent insert
// into the scanned secondary range, or any change to a resolved row,
// aborts the transaction at commit, and an entry whose row a concurrent
// writer removed returns ErrConflict — after fn has seen the rows before
// it, which a re-executed transaction body must discard. Under a SnapTx
// entries and rows are read at the same snapshot epoch: consistent, never
// aborting. fn runs after the rows it is handed were read, so it may
// itself read through r.
func ScanIndexBatched(r Reader, ix *Index, lo, hi []byte, max int, fn func(sk, pk, value []byte) bool) error {
	return index.Scan(r, ix, lo, hi, max, fn)
}

// ScanIndexCovering serves a covering index's included row fields straight
// from its entry values, for the first max entries (0 means the whole
// range): fn receives (secondaryKey, primaryKey, includedFields) and the
// primary tree is never touched — no per-entry shared-memory round trip at
// all. Under a Tx phantom safety comes from node-set validation on the
// index tree alone; freshness from the entries themselves joining the
// read-set (maintenance rewrites an entry whenever an included field
// changes). ErrNotCovering reports an index declared without an include
// list.
func ScanIndexCovering(r Reader, ix *Index, lo, hi []byte, max int, fn func(sk, pk, fields []byte) bool) error {
	return index.ScanCovering(r, ix, lo, hi, max, fn)
}

// ScanIndexEntries is ScanIndex without resolving primary rows: fn
// receives (secondaryKey, primaryKey) only, and under a Tx only the entry
// tree is phantom-protected.
func ScanIndexEntries(r Reader, ix *Index, lo, hi []byte, fn func(sk, pk []byte) bool) error {
	return index.ScanEntries(r, ix, lo, hi, fn)
}

// VerifyIndexCovering re-derives the included fields of every covering
// entry in [lo, hi) from its primary row, inside tx, and fails on the
// first divergence (a row missing mid-audit returns ErrDanglingEntry,
// which Run turns into ErrConflict and a retry when the reads were
// doomed). Consistency audits and tests use it to
// check covering freshness live.
func VerifyIndexCovering(tx *Tx, ix *Index, lo, hi []byte) error {
	return index.VerifyCoveringFresh(tx, ix, lo, hi)
}

// LookupIndex resolves a secondary key on a unique index to its primary
// key and row value (ErrNotFound if absent). The returned slices are owned
// by the caller.
func LookupIndex(r Reader, ix *Index, sk []byte) (pk, value []byte, err error) {
	return index.Lookup(r, ix, sk)
}

// Workers returns the number of worker contexts. Networked front ends
// (package server) use it to size their pools of worker contexts.
func (db *DB) Workers() int { return db.store.Workers() }

// Tx is a serializable read/write transaction. See core.Tx for the
// underlying commit protocol; the API here is the same.
type Tx = core.Tx

// SnapTx is a read-only snapshot transaction.
type SnapTx = core.SnapTx

// Reader is what both transaction kinds read through (GetAppend, GetBatch,
// Scan): the index reads take one, so the same call runs serializably in
// Run or at a snapshot in RunSnapshot.
type Reader = core.Reader

// Run executes fn as a transaction on the given worker, committing if fn
// returns nil and retrying automatically on conflict. fn must be
// deterministic enough to re-execute. The call must not overlap another Run
// on the same worker.
//
// An error (or panic) from fn is handed back only if the reads it came
// from were consistent; an attempt whose reads do not validate was doomed
// and is retried like any conflict. Otherwise a panic aborts the
// transaction and continues, leaving the worker usable.
func (db *DB) Run(worker int, fn func(tx *Tx) error) error {
	err := db.store.Worker(worker).Run(fn)
	db.heartbeat(worker)
	return err
}

// RunNoRetry executes one attempt; ErrConflict reports an abort that the
// caller may retry — a failed commit, or a doomed attempt whose error or
// panic came from reads that do not validate (see Run).
func (db *DB) RunNoRetry(worker int, fn func(tx *Tx) error) error {
	err := db.store.Worker(worker).RunOnce(fn)
	db.heartbeat(worker)
	return err
}

// RunSnapshot executes fn against a recent consistent snapshot. Snapshot
// transactions see slightly stale data (at most about EpochInterval ×
// SnapshotK old — fresher while durability waiters close epochs early),
// never abort, and perform no shared-memory writes.
func (db *DB) RunSnapshot(worker int, fn func(stx *SnapTx) error) error {
	if db.opts.DisableSnapshots {
		return errors.New("silo: snapshots disabled by Options.DisableSnapshots")
	}
	err := db.store.Worker(worker).RunSnapshot(fn)
	db.heartbeat(worker)
	return err
}

// TxnSpans is one traced transaction's span timeline — queue wait,
// statement execution across OCC retries, commit validation, log
// handoff, group-commit fsync wait, result assembly — plus the commit
// TID and retry count. It is what DB.RunTraced fills, what TRACER
// frames carry, and what client.Txn.Trace returns.
type TxnSpans = trace.Spans

// RunTraced is Run — errors and panics included — with span capture:
// statement execution and the commit phases are force-timed into sp (Exec
// accumulates across conflict retries, which sp.Retries counts). It never
// waits for durability — sp.Fsync belongs to whoever holds the result back
// until its epoch is durable (package server's connection writer). A nil
// sp runs fn exactly as Run.
func (db *DB) RunTraced(worker int, sp *TxnSpans, fn func(tx *Tx) error) error {
	err := db.store.Worker(worker).RunTraced(fn, sp)
	db.heartbeat(worker)
	return err
}

// Flight returns the database's flight recorder. Dump it for the recent
// event timeline — commits, aborts with conflicting table and key
// forensics, fsync passes, checkpoint stages, DDL, connection lifecycle.
func (db *DB) Flight() *trace.Recorder { return db.store.Flight() }

// RunDurable is Run followed by a wait until the transaction's epoch is
// durable — the point at which the paper releases results to clients. The
// wait closes the transaction's epoch early (see EpochInterval), so it
// lasts about one fsync pass. It requires Durability.
func (db *DB) RunDurable(worker int, fn func(tx *Tx) error) error {
	if db.wal == nil {
		return errors.New("silo: RunDurable requires Options.Durability")
	}
	w := db.store.Worker(worker)
	err := w.Run(fn)
	if err != nil {
		return err
	}
	wl := db.wal.WorkerLog(worker)
	wl.Heartbeat() // flush our own buffer so we never wait on ourselves
	db.wal.WaitDurable(tidEpoch(w.LastCommitTID()))
	return nil
}

func (db *DB) heartbeat(worker int) {
	if db.wal != nil {
		db.wal.WorkerLog(worker).MaybeHeartbeat()
	}
}

// DurableEpoch returns the global durable epoch D (0 without durability).
func (db *DB) DurableEpoch() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.DurableEpoch()
}

// LastCommitEpoch returns the epoch of the worker's most recent commit.
// Called on the worker's own goroutine right after a successful Run, it
// is the commit epoch of that transaction — the epoch whose durability
// gates releasing the result to the client.
func (db *DB) LastCommitEpoch(worker int) uint64 {
	return tidEpoch(db.store.Worker(worker).LastCommitTID())
}

// WaitDurable blocks until the durable epoch D covers e; without
// durability it returns immediately, and once Close has drained the log it
// returns whatever e is. The wait is demand (see EpochInterval). Combined
// with FlushLog and LastCommitEpoch it is a per-request durability wait
// (RunDurable is exactly that composition); a group-ack server's
// connection writers call it instead, so workers never block.
func (db *DB) WaitDurable(e uint64) {
	if db.wal != nil {
		db.wal.WaitDurable(e)
	}
}

// FlushLog pushes the worker's open log buffer to its logger so a
// durability wait for its last commit cannot stall on the worker's own
// unpublished buffer. Safe from any goroutine; no-op without durability.
func (db *DB) FlushLog(worker int) {
	if db.wal != nil {
		db.wal.WorkerLog(worker).Heartbeat()
	}
}

// Epoch returns the current global epoch E.
func (db *DB) Epoch() uint64 { return db.store.Epochs().Global() }

// RecoveryResult reports what a recovery pass did: the replay counters plus
// checkpoint usage and per-stage timing (checkpoint load, log read, log
// apply).
type RecoveryResult = recovery.Result

// Recover returns what the recovery pass Open ran did: the durable epoch D
// and checkpoint epoch CE reached, transactions replayed and skipped, stage
// timings, and the indexes whose interrupted creation it finished or
// rolled back. Checkpoint partitions load in parallel and log replay fans
// out across Durability.RecoveryWorkers goroutines — per-record TID-max
// installation makes replay order-free, so recovery scales with cores. It
// is an error without Durability.
func (db *DB) Recover() (RecoveryResult, error) {
	if db.recovered == nil {
		return RecoveryResult{}, errors.New("silo: Recover requires Options.Durability")
	}
	return *db.recovered, nil
}

// CheckpointResult describes a completed checkpoint.
type CheckpointResult = recovery.CheckpointResult

// Checkpoint writes a transactionally consistent image of every table as
// of a recent snapshot epoch into the durability directory: a partitioned
// checkpoint set (checkpoint.<CE>/part.<k> under a manifest) produced by
// Durability.CheckpointPartitions concurrent writers, each walking a
// disjoint key range at the same snapshot epoch. The snapshot is pinned
// by a snapshot transaction on the given worker (§4.10: checkpoints take
// advantage of snapshots to avoid interfering with read/write
// transactions); the worker must be otherwise idle. Recovery prefers the
// newest complete checkpoint and replays only the log suffix beyond it;
// TruncateLogs may then delete fully-covered log files. With
// Durability.CheckpointInterval set, the background daemon does all of
// this on its own maintenance worker instead.
func (db *DB) Checkpoint(worker int) (CheckpointResult, error) {
	if db.opts.Durability == nil {
		return CheckpointResult{}, errors.New("silo: Checkpoint requires Options.Durability")
	}
	if db.opts.DisableSnapshots {
		return CheckpointResult{}, errors.New("silo: Checkpoint requires snapshots")
	}
	parts := db.opts.Durability.CheckpointPartitions
	if parts <= 0 {
		parts = 4
	}
	return recovery.WriteCheckpoint(db.opts.Durability.FS, db.store, db.store.Worker(worker), db.opts.Durability.Dir, parts, db.catalog.Table())
}

// CheckpointDaemonStats is a snapshot of the background checkpoint
// daemon's counters.
type CheckpointDaemonStats = recovery.DaemonStats

// CheckpointDaemon reports the background checkpoint daemon's counters;
// ok is false when no daemon is running.
func (db *DB) CheckpointDaemon() (stats CheckpointDaemonStats, ok bool) {
	if db.daemon == nil {
		return CheckpointDaemonStats{}, false
	}
	return db.daemon.Stats(), true
}

// TruncateLogs deletes log files entirely covered by a checkpoint at epoch
// ce (as returned in CheckpointResult.Epoch): those that hold no
// transaction with epoch ≥ ce, except each logger's newest file, which
// carries the logger's durable bound. A file that cannot be read to its end
// (a frame with a valid checksum that does not decode) is kept and named in
// the error. Loggers must be stopped: call it between Close and a subsequent
// Open, from an administrative process, or via cmd/silo-recover.
func TruncateLogs(dir string, ce uint64) ([]string, error) {
	return wal.TruncateLogs(dir, ce)
}

// Store exposes the underlying engine for benchmarks and tests that need
// factor toggles or direct worker access. Most applications never need it.
func (db *DB) Store() *core.Store { return db.store }

func tidEpoch(pure uint64) uint64 { return tid.Word(pure).Epoch() }
