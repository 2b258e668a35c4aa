// Package core implements Silo's transaction engine: the minimal-contention
// serializable OCC commit protocol (§4.4), database operations including
// inserts, deletes and range queries with phantom protection (§4.5, §4.6),
// epoch-based garbage collection (§4.8), and read-only snapshot transactions
// (§4.9).
//
// A Store owns a set of tables (each an index tree mapping byte-string keys
// to records) and a fixed set of Workers. Each worker executes one-shot
// requests to completion on its own goroutine; workers share the entire
// database (Silo's shared-memory design, §3). Secondary indexes are simply
// additional tables maintained explicitly by transaction code (§4.7).
package core

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"silo/internal/btree"
	"silo/internal/epoch"
	"silo/internal/tid"
	"silo/internal/trace"
	"silo/internal/vfs"
)

// Sentinel errors returned by transaction operations.
var (
	// ErrNotFound reports that a key is not present (or is logically absent).
	ErrNotFound = errors.New("silo: key not found")
	// ErrKeyExists reports an insert of a key that already exists.
	ErrKeyExists = errors.New("silo: key already exists")
	// ErrConflict reports that the transaction lost a conflict and must be
	// retried: commit-time validation failed, or execution observed state
	// that cannot be serialized (e.g., a superseded record version).
	ErrConflict = errors.New("silo: transaction conflict, retry")
	// ErrTxDone reports use of a transaction after Commit or Abort.
	ErrTxDone = errors.New("silo: transaction already finished")
)

// Options configures a Store. The zero value is not useful; NewStore fills
// defaults. The factor-analysis toggles (Figure 11) default to Silo's full
// configuration.
type Options struct {
	// Workers is the number of worker contexts (one per "core").
	Workers int
	// EpochInterval is the global epoch advance period (§4.1).
	EpochInterval time.Duration
	// SnapshotK is the snapshot-epoch divisor (§4.9).
	SnapshotK int

	// Snapshots maintains superseded record versions so read-only snapshot
	// transactions can run (§4.9). Disabling it reproduces +NoSnapshots.
	Snapshots bool
	// GC reaps registered garbage between requests (§4.8). Disabling it
	// reproduces +NoGC.
	GC bool
	// Overwrites updates record data in place when possible (§4.5).
	// Disabling it allocates a new buffer for every write (the paper's
	// "Simple" configuration).
	Overwrites bool
	// Arena enables the per-worker slab/free-list allocator standing in for
	// the paper's NUMA-aware allocator (+Allocator).
	Arena bool
	// GlobalTID draws commit TIDs from one shared counter instead of
	// per-worker generators, reproducing the MemSilo+GlobalTID baseline.
	GlobalTID bool
	// ManualEpochs suppresses the epoch-advancing goroutine; tests drive
	// epochs with Store.AdvanceEpoch.
	ManualEpochs bool
	// Clock drives the epoch-advancing thread; nil means real time. The
	// deterministic simulation harness (internal/sim) substitutes a
	// manually stepped clock.
	Clock vfs.Clock
}

// DefaultOptions returns the full-Silo configuration for n workers.
func DefaultOptions(n int) Options {
	return Options{
		Workers:       n,
		EpochInterval: epoch.DefaultInterval,
		SnapshotK:     epoch.DefaultSnapshotK,
		Snapshots:     true,
		GC:            true,
		Overwrites:    true,
		Arena:         true,
	}
}

// LoggedWrite is one modified record in a committed transaction, handed to
// the durability layer (§4.10).
type LoggedWrite struct {
	Table  uint32
	Key    []byte
	Value  []byte
	Delete bool
}

// LogFunc receives each committed transaction on the committing worker's
// goroutine. The callee must copy what it keeps; key/value buffers are
// reused. A nil LogFunc disables logging (MemSilo).
type LogFunc func(commit tid.Word, writes []LoggedWrite)

// WriteHook observes the logical writes a transaction performs on a table,
// from inside that transaction, before it commits. Hooks are how secondary
// indexes are maintained (§4.7: index updates are ordinary writes folded
// into the same commit): a hook issues its own operations through tx, so
// everything it writes joins the transaction's read- and write-sets and
// commits — or aborts — atomically with the triggering write.
//
// The pk/value slices are valid only until the hook performs its next
// operation on tx (they may alias transaction-internal buffers). A hook
// returning an error poisons the transaction: the triggering operation
// returns the error and Commit will refuse to commit, aborting instead,
// so a caller that swallows the error cannot commit a half-maintained
// state.
type WriteHook interface {
	// OnInsert runs after tx stages an insert of (pk, val).
	OnInsert(tx *Tx, pk, val []byte) error
	// OnUpdate runs after tx stages an overwrite of pk from oldVal to newVal.
	OnUpdate(tx *Tx, pk, oldVal, newVal []byte) error
	// OnDelete runs after tx stages a delete of pk, whose last value was oldVal.
	OnDelete(tx *Tx, pk, oldVal []byte) error
}

// Table is a named index tree. Records are stored in the primary tree; a
// secondary index is just another Table whose values are primary keys,
// maintained either explicitly by transaction code or automatically by a
// registered WriteHook (see internal/index for the declarative subsystem
// built on hooks).
type Table struct {
	ID   uint32
	Name string
	Tree *btree.Tree

	hooks atomic.Pointer[[]WriteHook]
}

// AddWriteHook registers h to run inside every future transaction that
// writes this table. Registration is not transactional: it must happen
// before the writes it is supposed to observe (typically at schema setup,
// before the table takes traffic). Safe for concurrent use.
func (t *Table) AddWriteHook(h WriteHook) {
	for {
		old := t.hooks.Load()
		var next []WriteHook
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, h)
		if t.hooks.CompareAndSwap(old, &next) {
			return
		}
	}
}

// RemoveWriteHook unregisters a hook previously added with AddWriteHook
// (compared with ==). It exists so a failed index build can withdraw its
// half-registered maintenance; transactions already in flight may still
// run the hook once more.
func (t *Table) RemoveWriteHook(h WriteHook) {
	for {
		old := t.hooks.Load()
		if old == nil {
			return
		}
		next := make([]WriteHook, 0, len(*old))
		for _, cur := range *old {
			if cur != h {
				next = append(next, cur)
			}
		}
		if len(next) == len(*old) {
			return
		}
		p := &next
		if len(next) == 0 {
			p = nil
		}
		if t.hooks.CompareAndSwap(old, p) {
			return
		}
	}
}

// WriteHooks returns the table's registered hooks (nil for most tables).
func (t *Table) WriteHooks() []WriteHook {
	if p := t.hooks.Load(); p != nil {
		return *p
	}
	return nil
}

// Store is a Silo database engine instance.
type Store struct {
	opts   Options
	epochs *epoch.Manager
	clock  vfs.Clock
	flight *trace.Recorder

	mu      sync.Mutex
	byName  atomic.Pointer[map[string]*Table] // replaced under mu, read without it
	byID    atomic.Pointer[[]*Table]          // grown under mu, read without it
	workers []*Worker
	maint   *Worker
	ddl     *Worker

	globalGen tid.GlobalGenerator
	closed    bool
}

// NewStore creates a store with the given options.
func NewStore(opts Options) *Store {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.EpochInterval <= 0 {
		opts.EpochInterval = epoch.DefaultInterval
	}
	if opts.SnapshotK <= 0 {
		opts.SnapshotK = epoch.DefaultSnapshotK
	}
	s := &Store{
		opts:  opts,
		clock: vfs.DefaultClock(opts.Clock),
	}
	s.flight = trace.New(s.clock)
	// Two extra epoch slots back the hidden workers: background
	// housekeeping (checkpointing) needs a snapshot pinned against
	// reclamation without borrowing an application worker, and schema DDL
	// (catalog appends) needs a transaction context callable from any
	// goroutine without overlapping an application worker's.
	s.epochs = epoch.NewManager(epoch.Config{
		Workers:   opts.Workers + 2,
		Interval:  opts.EpochInterval,
		SnapshotK: opts.SnapshotK,
		Clock:     opts.Clock,
	})
	s.workers = make([]*Worker, opts.Workers)
	for i := range s.workers {
		s.workers[i] = newWorker(s, i)
	}
	s.maint = newWorker(s, opts.Workers)
	s.ddl = newWorker(s, opts.Workers+1)
	if !opts.ManualEpochs {
		s.epochs.Start()
	}
	return s
}

// Close stops background activity. Outstanding transactions must be
// finished first.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.epochs.Stop()
}

// Options returns the store's configuration.
func (s *Store) Options() Options { return s.opts }

// Epochs exposes the epoch manager (used by the durability layer and
// benchmarks).
func (s *Store) Epochs() *epoch.Manager { return s.epochs }

// AdvanceEpoch performs one manual epoch step (tests and deterministic
// benchmarks).
func (s *Store) AdvanceEpoch() bool { return s.epochs.Advance() }

// CreateTable creates (or returns, if it exists) the named table.
func (s *Store) CreateTable(name string) *Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.Table(name); t != nil {
		return t
	}
	byID := s.tableList()
	t := &Table{ID: uint32(len(byID)), Name: name, Tree: btree.New()}
	// Readers of the old list never index past its length, so appending
	// in place and then publishing the longer list is safe. The id is
	// published before the name, so a table found by name is always found
	// by its id.
	byID = append(byID, t)
	s.byID.Store(&byID)
	// Lookups by name read the map without the lock, so it is copied, not
	// written: creation is rare, lookups come with every request.
	byName := map[string]*Table{name: t}
	if p := s.byName.Load(); p != nil {
		maps.Copy(byName, *p)
	}
	s.byName.Store(&byName)
	s.flight.RecordShared(trace.EvDDL, trace.DDLCreateTable, t.ID, 0, []byte(name))
	return t
}

// Flight returns the store's flight recorder. Other layers (the WAL, the server front end,
// the checkpoint daemon) register their own rings on it so one dump
// covers the whole process.
func (s *Store) Flight() *trace.Recorder { return s.flight }

// now reads the store's clock (virtual under the simulation harness),
// the time source for traced span timelines.
func (s *Store) now() time.Duration { return s.clock.Now() }

// Now reads the store's clock for callers outside the engine (the
// server front end times queue wait and durability wait on the same
// clock the commit phases use, so traced timelines stay coherent —
// and deterministic under the simulation harness).
func (s *Store) Now() time.Duration { return s.now() }

// Table returns the named table or nil. It takes no lock.
func (s *Store) Table(name string) *Table {
	if p := s.byName.Load(); p != nil {
		return (*p)[name]
	}
	return nil
}

// tableList is every table in creation order, indexed by id. Tables are
// never dropped, so the list only grows; it takes no lock, so a worker's
// garbage collector can name each unhook's table by id (gcState.reap).
func (s *Store) tableList() []*Table {
	if p := s.byID.Load(); p != nil {
		return *p
	}
	return nil
}

// TableByID returns the table with the given id or nil.
func (s *Store) TableByID(id uint32) *Table {
	if byID := s.tableList(); int(id) < len(byID) {
		return byID[id]
	}
	return nil
}

// Tables returns all tables in creation order.
func (s *Store) Tables() []*Table {
	return append([]*Table(nil), s.tableList()...)
}

// Worker returns worker i. Each worker must be used by one goroutine at a
// time.
func (s *Store) Worker(i int) *Worker { return s.workers[i] }

// Workers returns the number of workers.
func (s *Store) Workers() int { return len(s.workers) }

// Maintenance returns the store's hidden maintenance worker: an extra
// worker context (with its own epoch slot) that does not count toward
// Workers and is never handed to applications. Background housekeeping —
// notably the checkpoint daemon — runs its snapshot transactions here, so
// it can pin a snapshot epoch against reclamation while every application
// worker keeps committing. Like any worker, it must be driven by at most
// one goroutine at a time.
func (s *Store) Maintenance() *Worker { return s.maint }

// DDL returns the store's hidden DDL worker: a second extra worker context
// reserved for schema-change bookkeeping (the silo-level catalog logs each
// DDL action as an ordinary transactional write). Keeping DDL on its own
// worker lets CreateTable-style entry points remain callable from any
// goroutine — including several concurrently, serialized by the caller —
// without borrowing an application worker or colliding with the checkpoint
// daemon on the maintenance worker. Like any worker, it must be driven by
// at most one goroutine at a time.
func (s *Store) DDL() *Worker { return s.ddl }

// String implements fmt.Stringer for debugging.
func (s *Store) String() string {
	return fmt.Sprintf("core.Store{workers=%d tables=%d epoch=%d}", len(s.workers), len(s.tableList()), s.epochs.Global())
}
