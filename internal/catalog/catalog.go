package catalog

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"silo/internal/core"
	"silo/internal/index"
	"silo/internal/obs"
	"silo/internal/trace"
)

// Catalog owns one store's schema: the reserved catalog table, the replay
// path (ApplyCatalogRow, then FinishRecovery), the DDL append path that
// follows it, and every index — declared, backfilled, named, dropped and
// counted here and nowhere else. DDL entry points serialize on the
// catalog's mutex; normal transactions are unaffected, and looking an
// index up by name takes no lock.
type Catalog struct {
	mu    sync.Mutex
	store *core.Store
	table *core.Table

	next uint64 // next record sequence number to assign or apply

	// set names the indexes; DDL replaces it whole under mu.
	set atomic.Pointer[indexSet]
	// pending names replayed index creates whose ready or drop record has
	// not been seen: declared and named, but not known to be backfilled.
	pending []string
	// broken holds replayed index creates whose declaration no longer
	// constructs (e.g. a corrupt record). The create is tolerated so a
	// following drop record can resolve it — the live path appends a drop
	// after every failed create — and only an UNRESOLVED broken create
	// fails recovery (in FinishRecovery), naming the index.
	broken map[string]error

	// counters are the read counters every index of this catalog shares,
	// so the totals never go backwards when an index is dropped.
	counters index.Counters
}

// indexSet is an immutable view of a catalog's indexes. byName maps every
// index entry-table name to its index — or to nil while a live create
// backfills, and once a drop or a failed create has left the entry table
// behind (tables cannot be dropped; their ids are part of the log format).
// A later create of a left-behind name adopts its table.
type indexSet struct {
	byName map[string]*index.Index
	all    []*index.Index // byName's non-nil values, in creation order
}

// New creates the catalog for a store, creating the reserved catalog table.
// It must run before any other table is created (the catalog claims id 0 —
// part of the on-disk format).
func New(s *core.Store) *Catalog {
	t := s.CreateTable(TableName)
	if t.ID != 0 {
		panic(fmt.Sprintf("catalog: table %q created at id %d; the catalog must be the store's first table", TableName, t.ID))
	}
	c := &Catalog{
		store:  s,
		table:  t,
		next:   1,
		broken: map[string]error{},
	}
	c.set.Store(&indexSet{byName: map[string]*index.Index{}})
	return c
}

// Table returns the catalog's backing table (the reserved table id 0).
func (c *Catalog) Table() *core.Table { return c.table }

// Index returns the named index, or nil (also while its creation
// backfills).
func (c *Catalog) Index(name string) *index.Index { return c.set.Load().byName[name] }

// Indexes returns the indexes in creation order.
func (c *Catalog) Indexes() []*index.Index { return slices.Clone(c.set.Load().all) }

// IsEntryTable reports whether the named table holds index entries: a
// live index's, one still backfilling, or one a drop or a failed create
// left behind. Only index maintenance may write such a table.
func (c *Catalog) IsEntryTable(name string) bool {
	_, ok := c.set.Load().byName[name]
	return ok
}

// leftBehind reports whether the named entry table was left behind by a
// drop or a failed create, so that a create of the name adopts it.
func (c *Catalog) leftBehind(name string) bool {
	ix, ok := c.set.Load().byName[name]
	return ok && ix == nil
}

// CollectObs appends the index read counters to snap (see index.Counters).
func (c *Catalog) CollectObs(snap *obs.Snapshot) { c.counters.CollectObs(snap) }

// setLocked publishes a new index set in which name maps to ix. Caller
// holds c.mu.
func (c *Catalog) setLocked(name string, ix *index.Index) {
	old := c.set.Load()
	next := &indexSet{byName: maps.Clone(old.byName)}
	next.byName[name] = ix
	for _, o := range old.all {
		if o.Name == name {
			o, ix = ix, nil // a re-published index keeps its place
		}
		if o != nil {
			next.all = append(next.all, o)
		}
	}
	if ix != nil {
		next.all = append(next.all, ix)
	}
	c.set.Store(next)
}

// appendLocked writes one DDL record as a transactional insert on the
// store's hidden DDL worker. Caller holds c.mu.
func (c *Catalog) appendLocked(rec *Record) error {
	seq := c.next
	key := SeqKey(seq)
	val := rec.Encode(nil)
	if err := c.store.DDL().Run(func(tx *core.Tx) error {
		return tx.Insert(c.table, key, val)
	}); err != nil {
		return fmt.Errorf("catalog: logging DDL record %d for %q: %w", seq, rec.Name, err)
	}
	c.next = seq + 1
	return nil
}

// CreateTable creates (or returns) the named user table, recording the
// creation. The reserved catalog name is rejected.
func (c *Catalog) CreateTable(name string) (*core.Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == TableName {
		return nil, fmt.Errorf("catalog: table name %q is reserved", TableName)
	}
	if t := c.store.Table(name); t != nil {
		return t, nil
	}
	t := c.store.CreateTable(name)
	if err := c.appendLocked(&Record{Kind: KindCreateTable, Name: name, ID: t.ID}); err != nil {
		return nil, err
	}
	return t, nil
}

// CreateIndex declares, backfills, and records an index — the DDL entry
// point silo.DB routes through. spec is the declarative key spec; include
// non-nil makes the index covering. The create record is durable before
// the backfill begins and a ready record follows its completion, so a
// crash in between is recoverable (roll forward or clean rollback); a
// failed backfill appends a drop record so the half-create is resolved in
// the log too. Re-declaring an existing index is idempotent when the
// declaration is identical — same table, uniqueness, spec and include
// list — and an error naming the index otherwise.
//
// The backfill runs in batched transactions on worker w. Writes racing
// the creation are handled: once the maintenance hook is in place,
// CreateIndex waits out every transaction that began before it (see
// waitPreRegistrationTxns), and only then scans; later writers see the
// hook and maintain their own entries, which the backfill tolerates. If
// the backfill fails (e.g. a unique violation between existing rows), the
// hook is withdrawn and the partially built entries wiped, so the table
// keeps working and the name can be retried.
func (c *Catalog) CreateIndex(w *core.Worker, on *core.Table, name string, unique bool, spec, include []index.Seg) (*index.Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ix := c.Index(name); ix != nil {
		if ix.On == on && ix.Unique == unique && slices.Equal(ix.Spec, spec) && slices.Equal(ix.Include, include) {
			return ix, nil
		}
		return nil, fmt.Errorf("index %q already exists with a different declaration", name)
	}
	// Everything a declaration can get wrong must be rejected BEFORE the
	// create record is logged: a record that adopts an unrelated table's
	// id — or that cannot be rebuilt at replay — would poison the
	// directory (at worst, a replayed drop of the create would wipe the
	// collided table's rows).
	if name == TableName {
		return nil, fmt.Errorf("catalog: index name %q is reserved", TableName)
	}
	// A left-behind entry table is adopted at its id; otherwise the entry
	// table takes the next id. DDL is serialized on c.mu, so the only way
	// the prediction can miss is a racing store-level (catalog-bypassing)
	// CreateTable, which already voids catalog recovery.
	entryID := uint32(len(c.store.Tables()))
	if t := c.store.Table(name); t != nil {
		if !c.leftBehind(name) {
			return nil, fmt.Errorf("index %q: a table with that name already exists", name)
		}
		entryID = t.ID
	}
	// index.New checks and compiles the declaration; replay declares
	// through it too.
	ix, err := index.New(&c.counters, on, name, unique, spec, include...)
	if err != nil {
		return nil, err
	}
	if err := c.appendLocked(&Record{
		Kind: KindCreateIndex, Name: name, ID: entryID,
		On: on.Name, Unique: unique, Spec: spec, Include: include,
	}); err != nil {
		return nil, err
	}
	ix.Attach(c.store)
	// The entry table is the index's from here on: the network server
	// refuses direct writes to it while it backfills.
	c.setLocked(name, nil)
	if on.Tree.Len() > 0 {
		waitPreRegistrationTxns(c.store)
	}
	if failed, err := c.buildLocked(w, ix); failed != nil {
		if err != nil {
			return nil, fmt.Errorf("%w (and the rollback failed too: %v)", failed, err)
		}
		return nil, failed
	}
	c.store.Flight().RecordShared(trace.EvDDL, trace.DDLCreateIndex, ix.Entries.ID, 0, []byte(name))
	return ix, nil
}

// buildLocked backfills a declared index on w and, once its ready record
// is logged, names it. If either step fails the index is rolled back —
// unhooked, its entries wiped, its entry table left behind, and a drop
// record logged so the log resolves the create too. failed is why the
// index was not built; err is why the rollback did not complete either.
func (c *Catalog) buildLocked(w *core.Worker, ix *index.Index) (failed, err error) {
	if ix.On.Tree.Len() > 0 {
		failed = ix.Backfill(w)
	}
	if failed != nil {
		failed = fmt.Errorf("index %q: backfill: %w", ix.Name, failed)
	} else if failed = c.appendLocked(&Record{Kind: KindIndexReady, Name: ix.Name}); failed == nil {
		c.setLocked(ix.Name, ix)
		return nil, nil
	}
	ix.Unhook()
	c.setLocked(ix.Name, nil)
	if err = wipe(w, ix.Entries); err != nil {
		return failed, fmt.Errorf("wiping its entries: %w", err)
	}
	return failed, c.appendLocked(&Record{Kind: KindDropIndex, Name: ix.Name})
}

// DropIndex withdraws the named index: maintenance unhooked, the drop
// recorded, and the entries wiped (the entry table itself remains — table
// ids are part of the log format — and is adoptable by a later create of
// the same name). Dropping an unknown name returns index.ErrNoIndex.
func (c *Catalog) DropIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ix := c.Index(name)
	if ix == nil {
		return fmt.Errorf("%w: %q", index.ErrNoIndex, name)
	}
	if err := c.appendLocked(&Record{Kind: KindDropIndex, Name: name}); err != nil {
		return err
	}
	c.withdrawLocked(name)
	c.store.Flight().RecordShared(trace.EvDDL, trace.DDLDropIndex, ix.Entries.ID, 0, []byte(name))
	return wipe(c.store.DDL(), ix.Entries)
}

// withdrawLocked unhooks the named index, if there is one, and leaves its
// entry table behind under the name. Entries are not wiped: a live drop
// wipes them, and a replayed drop gets the wipe from the log.
func (c *Catalog) withdrawLocked(name string) {
	if ix := c.Index(name); ix != nil {
		ix.Unhook()
	}
	c.removePending(name)
	c.setLocked(name, nil)
}

// waitPreRegistrationTxns waits until every transaction that began before
// the caller registered a write hook has finished. It relies on the epoch
// invariant: the global epoch cannot advance past an active worker's
// local epoch, and workers (re-)entering after two advances are ordered
// after the registration, so they observe the hook. Skipped for
// manually-stepped stores (tests drive their own concurrency). The one
// caveat is Worker.RefreshEpoch, which lifts a still-running
// transaction's local epoch. Its one caller, recovery.WriteCheckpoint,
// refreshes the maintenance worker every millisecond while a checkpoint's
// parts are written — inside a snapshot transaction, which writes nothing,
// so it has no write a maintenance hook could miss.
//
// Rather than waiting out the background advancer's period, the loop
// attempts the advance itself: Advance enforces the E ≤ e_w + 1 invariant,
// so it succeeds exactly when every pre-registration transaction has
// refreshed or finished — the condition being waited for. This keeps DDL
// latency at the transaction horizon instead of two advancer ticks, and
// it is what lets the deterministic simulation clock (whose advancer only
// ticks when the — currently blocked — driving goroutine steps it) run
// index DDL at all.
func waitPreRegistrationTxns(s *core.Store) {
	if s.Options().ManualEpochs {
		return
	}
	target := s.Epochs().Global() + 2
	for s.Epochs().Global() < target {
		if !s.AdvanceEpoch() {
			time.Sleep(time.Millisecond)
		}
	}
}

// wipeBatch is the number of entries deleted per wipe transaction.
const wipeBatch = 256

// wipe deletes every row of an index entry table in batched transactions
// on w. The index's maintenance hook must already be withdrawn.
func wipe(w *core.Worker, t *core.Table) error {
	var keys [][]byte
	for {
		err := w.Run(func(tx *core.Tx) error {
			keys = keys[:0]
			if err := tx.Scan(t, []byte{0}, nil, func(k, _ []byte) bool {
				keys = append(keys, append([]byte(nil), k...))
				return len(keys) < wipeBatch
			}); err != nil {
				return err
			}
			for _, k := range keys {
				if err := tx.Delete(t, k); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if len(keys) == 0 {
			return nil
		}
	}
}

// ---------------------------------------------------------------------------
// Replay (recovery.SchemaApplier)

// ApplyCatalogRow applies one catalog row — from the checkpoint manifest's
// schema section or from a replayed log entry — to the store's schema.
// Rows must arrive in sequence order; rows already applied (the manifest
// and the log overlap around the checkpoint epoch) are skipped. A row that
// does not decode, or that disagrees with the schema the earlier rows
// built, fails with an error naming the row's sequence number.
func (c *Catalog) ApplyCatalogRow(key, val []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq, err := ParseSeqKey(key)
	if err != nil {
		return err
	}
	if seq < c.next {
		return nil // already applied
	}
	if seq != c.next {
		return fmt.Errorf("catalog: record sequence gap: got %d, expected %d", seq, c.next)
	}
	rec, err := DecodeRecord(val)
	if err == nil {
		err = c.applyLocked(&rec)
	}
	if err != nil {
		return fmt.Errorf("catalog: record %d: %w", seq, err)
	}
	c.next = seq + 1
	return nil
}

func (c *Catalog) applyLocked(rec *Record) error {
	switch rec.Kind {
	case KindCreateTable:
		if err := c.checkNewTable(rec.Name, rec.ID); err != nil {
			return err
		}
		c.store.CreateTable(rec.Name)
		return nil
	case KindCreateIndex:
		return c.replayIndex(rec)
	case KindIndexReady:
		c.removePending(rec.Name)
		return nil
	case KindDropIndex:
		c.withdrawLocked(rec.Name)
		delete(c.broken, rec.Name)
		return nil
	}
	return fmt.Errorf("%w: unknown kind %d", ErrBadRecord, rec.Kind)
}

func (c *Catalog) removePending(name string) {
	c.pending = slices.DeleteFunc(c.pending, func(n string) bool { return n == name })
}

// checkNewTable verifies that creating name now gives it the id its record
// holds: the name must be new and the id the next one the store assigns.
func (c *Catalog) checkNewTable(name string, id uint32) error {
	if t := c.store.Table(name); t != nil {
		return fmt.Errorf("table %q is created again (it already holds id %d)", name, t.ID)
	}
	if next := uint32(len(c.store.Tables())); next != id {
		return fmt.Errorf("table %q holds id %d in the catalog, but the store would assign id %d", name, id, next)
	}
	return nil
}

// replayIndex declares and names one recovered index. Every create is
// considered pending until its ready record arrives.
func (c *Catalog) replayIndex(rec *Record) error {
	if rec.Name == TableName {
		return fmt.Errorf("index name %q is reserved", TableName)
	}
	if c.store.Table(rec.On) == nil {
		return fmt.Errorf("index %q indexes table %q, which no earlier catalog record creates", rec.Name, rec.On)
	}
	if t := c.store.Table(rec.Name); t != nil {
		// The entry table exists: an earlier create of this name was
		// dropped, and this re-create adopts the left-behind table at its id.
		if !c.leftBehind(rec.Name) || t.ID != rec.ID {
			return fmt.Errorf("index %q holds entry-table id %d in the catalog, but table %q already holds id %d", rec.Name, rec.ID, rec.Name, t.ID)
		}
	} else if err := c.checkNewTable(rec.Name, rec.ID); err != nil {
		return err
	}
	ix, err := index.New(&c.counters, c.store.Table(rec.On), rec.Name, rec.Unique, rec.Spec, rec.Include...)
	if err != nil {
		// The create no longer constructs. Its entry table is still
		// materialized, so table ids do not skew, and the name is held
		// broken until a drop record resolves it (see c.broken).
		c.store.CreateTable(rec.Name)
		c.broken[rec.Name] = err
		return nil
	}
	ix.Attach(c.store)
	c.setLocked(rec.Name, ix)
	c.pending = append(c.pending, rec.Name)
	return nil
}

// Pending returns the names of replayed index creates whose ready record
// never arrived — crashes mid-DDL awaiting roll-forward.
func (c *Catalog) Pending() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.pending...)
}

// FinishRecovery completes the DDL lifecycle after replay, before the
// store takes transactions:
//
//   - A replayed index create that never constructed and was never
//     dropped fails recovery, naming the index. This check runs before
//     start, so a directory that cannot be recovered is left as found.
//   - start runs (nil skips it): the caller attaches the loggers that
//     record everything below.
//   - Pending index creates (create record durable, ready record absent —
//     a crash mid-backfill) are rolled forward: the backfill re-runs,
//     idempotently over whatever entries the log already replayed, and a
//     ready record is appended. If the backfill cannot complete (e.g. a
//     unique violation between recovered rows) the index is rolled back
//     cleanly: unhooked, entries wiped, drop record appended.
//   - Left-behind entry tables get leftover entries wiped (a crash
//     mid-wipe leaves some behind).
//
// It returns the names rolled forward and rolled back. The epoch counter
// must already be restarted above the recovered epochs so the records and
// backfills log correctly. From here on DDL entry points append records.
func (c *Catalog) FinishRecovery(start func() error) (completed, rolledBack []string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, cause := range c.broken {
		return nil, nil, fmt.Errorf("catalog: index %q has a create record that no longer constructs and no resolving drop record: %w", name, cause)
	}
	if start != nil {
		if err := start(); err != nil {
			return nil, nil, err
		}
	}
	w := c.store.DDL()

	pending := c.pending
	c.pending = nil
	for _, name := range pending {
		failed, err := c.buildLocked(w, c.Index(name))
		switch {
		case err != nil:
			return completed, rolledBack, fmt.Errorf("catalog: rolling back index %q: %v (%w)", name, failed, err)
		case failed != nil:
			rolledBack = append(rolledBack, name)
		default:
			completed = append(completed, name)
		}
	}

	for name, ix := range c.set.Load().byName {
		if t := c.store.Table(name); ix == nil && t != nil && t.Tree.Len() > 0 {
			if err := wipe(w, t); err != nil {
				return completed, rolledBack, fmt.Errorf("catalog: wiping dropped index %q: %w", name, err)
			}
		}
	}
	return completed, rolledBack, nil
}
