package catalog

import (
	"fmt"
	"sync"

	"silo/internal/core"
	"silo/internal/index"
	"silo/internal/trace"
)

// Catalog owns one store's schema lifecycle: the reserved catalog table,
// the replay path (ApplyCatalogRow, then FinishRecovery), and the DDL
// append path that follows it. All entry points serialize on the
// catalog's mutex; normal transactions are unaffected.
type Catalog struct {
	mu    sync.Mutex
	store *core.Store
	reg   *index.Registry
	table *core.Table

	next uint64 // next record sequence number to assign or apply

	// pending tracks index creates whose ready/drop marker has not been
	// seen; dropped tracks indexes whose latest record is a drop (their
	// entry tables may need a wipe after replay).
	pending []string
	dropped map[string]bool
	// broken holds replayed index creates whose declaration no longer
	// constructs (e.g. a corrupt record). The create is tolerated so a
	// following drop record can resolve it — the live path appends a drop
	// after every failed create — and only an UNRESOLVED broken create
	// fails recovery (in FinishRecovery), naming the index.
	broken map[string]error
}

// New creates the catalog for a store, creating the reserved catalog table.
// It must run before any other table is created (the catalog claims id 0 —
// part of the on-disk format).
func New(s *core.Store, reg *index.Registry) *Catalog {
	t := s.CreateTable(TableName)
	if t.ID != 0 {
		panic(fmt.Sprintf("catalog: table %q created at id %d; the catalog must be the store's first table", TableName, t.ID))
	}
	return &Catalog{
		store:   s,
		reg:     reg,
		table:   t,
		next:    1,
		dropped: map[string]bool{},
		broken:  map[string]error{},
	}
}

// Table returns the catalog's backing table (the reserved table id 0).
func (c *Catalog) Table() *core.Table { return c.table }

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
// declaration is identical and an error naming the index otherwise.
func (c *Catalog) CreateIndex(w *core.Worker, on *core.Table, name string, unique bool, spec, include []index.Seg) (*index.Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == TableName {
		return nil, fmt.Errorf("catalog: index name %q is reserved", TableName)
	}
	if c.reg.Get(name) != nil {
		// Re-creation of an existing name: the registry compares the
		// declarations; nothing new to record.
		return c.reg.Create(c.store, w, on, name, unique, spec, include)
	}
	// Everything the registry would reject must be rejected BEFORE the
	// create record is logged: a record that adopts an unrelated table's
	// id — or that cannot be re-compiled at replay — would poison the
	// directory (at worst, a replayed drop of the create would wipe the
	// collided table's rows).
	if on == nil {
		return nil, fmt.Errorf("index %q: no table to index", name)
	}
	if err := index.ValidateSpec(spec); err != nil {
		return nil, fmt.Errorf("index %q: %w", name, err)
	}
	if include != nil {
		if err := index.ValidateSpec(include); err != nil {
			return nil, fmt.Errorf("index %q include list: %w", name, err)
		}
	}
	if t := c.store.Table(name); t != nil && !c.reg.Orphan(name) {
		return nil, fmt.Errorf("index %q: a table with that name already exists", name)
	}
	// Predict the entry table's id: an orphan retry reuses its table, a
	// fresh create takes the next id. DDL is serialized on c.mu, so the
	// only way the prediction can miss is a racing store-level (catalog-
	// bypassing) CreateTable, which already voids catalog recovery.
	entryID := uint32(len(c.store.Tables()))
	if t := c.store.Table(name); t != nil {
		entryID = t.ID
	}
	rec := &Record{
		Kind: KindCreateIndex, Name: name, ID: entryID,
		On: on.Name, Unique: unique, Spec: spec, Include: include,
	}
	if err := c.appendLocked(rec); err != nil {
		return nil, err
	}
	ix, err := c.reg.Create(c.store, w, on, name, unique, spec, include)
	if err != nil {
		// Resolve the pending create in the log so recovery does not try
		// to roll a known-failed backfill forward.
		if aerr := c.appendLocked(&Record{Kind: KindDropIndex, Name: name}); aerr != nil {
			return nil, fmt.Errorf("%w (and the rollback record failed too: %v)", err, aerr)
		}
		return nil, err
	}
	if err := c.appendLocked(&Record{Kind: KindIndexReady, Name: name}); err != nil {
		// Without a durable ready record the next recovery would re-run
		// the (idempotent) backfill; the index itself is fine. Surface the
		// logging failure but keep the index consistent by tearing it down.
		c.reg.Remove(name)
		if werr := index.WipeEntries(c.store.DDL(), ix.Entries); werr != nil {
			return nil, fmt.Errorf("%w (cleanup also failed: %v)", err, werr)
		}
		return nil, err
	}
	c.store.Flight().RecordShared(trace.EvDDL, trace.DDLCreateIndex, ix.Entries.ID, 0, []byte(name))
	return ix, nil
}

// DropIndex withdraws the named index: maintenance unhooked, the drop
// recorded, and the entries wiped (the entry table itself remains — table
// ids are part of the log format — and is adoptable by a later create of
// the same name). Dropping an unknown name returns index.ErrNoIndex.
func (c *Catalog) DropIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ix := c.reg.Get(name)
	if ix == nil {
		return fmt.Errorf("%w: %q", index.ErrNoIndex, name)
	}
	if err := c.appendLocked(&Record{Kind: KindDropIndex, Name: name}); err != nil {
		return err
	}
	c.reg.Remove(name)
	c.store.Flight().RecordShared(trace.EvDDL, trace.DDLDropIndex, ix.Entries.ID, 0, []byte(name))
	return index.WipeEntries(c.store.DDL(), ix.Entries)
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
		if c.reg.Get(rec.Name) != nil {
			c.reg.Remove(rec.Name)
		}
		c.removePending(rec.Name)
		delete(c.broken, rec.Name)
		c.dropped[rec.Name] = true
		return nil
	}
	return fmt.Errorf("%w: unknown kind %d", ErrBadRecord, rec.Kind)
}

func (c *Catalog) removePending(name string) {
	for i, n := range c.pending {
		if n == name {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
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

// replayIndex materializes one recovered index declaration. Every create is
// considered pending until its ready record arrives.
func (c *Catalog) replayIndex(rec *Record) error {
	if rec.Name == TableName {
		return fmt.Errorf("index name %q is reserved", TableName)
	}
	on := c.store.Table(rec.On)
	if on == nil {
		return fmt.Errorf("index %q indexes table %q, which no earlier catalog record creates", rec.Name, rec.On)
	}
	if t := c.store.Table(rec.Name); t != nil {
		// The entry table exists: an earlier create of this name was
		// dropped, and this re-create adopts the orphan at its id.
		if !c.dropped[rec.Name] || t.ID != rec.ID {
			return fmt.Errorf("index %q holds entry-table id %d in the catalog, but table %q already holds id %d", rec.Name, rec.ID, rec.Name, t.ID)
		}
	} else if err := c.checkNewTable(rec.Name, rec.ID); err != nil {
		return err
	}
	key, err := index.CompileSpec(rec.Spec)
	if err != nil {
		return c.markBroken(rec, err)
	}
	ix, err := index.New(c.store, on, rec.Name, rec.Unique, key, rec.Include...)
	if err != nil {
		return c.markBroken(rec, err)
	}
	ix.Spec = append([]index.Seg(nil), rec.Spec...)
	c.reg.Register(ix)
	c.pending = append(c.pending, rec.Name)
	delete(c.dropped, rec.Name)
	return nil
}

// markBroken tolerates a create record that no longer constructs: the
// entry table is still materialized (table-id accounting must not skew)
// but no index is registered, and the name is held broken until a drop
// record resolves it. The live write path validates declarations before
// logging them, so an unresolved broken create indicates a corrupt
// record; FinishRecovery fails on it rather than silently dropping the
// index.
func (c *Catalog) markBroken(rec *Record, cause error) error {
	c.store.CreateTable(rec.Name)
	c.broken[rec.Name] = cause
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
//   - Dropped indexes get leftover entries wiped (a crash mid-wipe leaves
//     some behind).
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

	pending := append([]string(nil), c.pending...)
	c.pending = nil
	for _, name := range pending {
		ix := c.reg.Get(name)
		if ix == nil {
			continue
		}
		if berr := ix.Backfill(w); berr != nil {
			c.reg.Remove(name)
			if werr := index.WipeEntries(w, ix.Entries); werr != nil {
				return completed, rolledBack, fmt.Errorf("catalog: rolling back index %q: %v (wipe failed: %w)", name, berr, werr)
			}
			if aerr := c.appendLocked(&Record{Kind: KindDropIndex, Name: name}); aerr != nil {
				return completed, rolledBack, aerr
			}
			rolledBack = append(rolledBack, name)
			continue
		}
		if aerr := c.appendLocked(&Record{Kind: KindIndexReady, Name: name}); aerr != nil {
			return completed, rolledBack, aerr
		}
		completed = append(completed, name)
	}

	for name := range c.dropped {
		if t := c.store.Table(name); t != nil && t.Tree.Len() > 0 && c.reg.Get(name) == nil {
			if werr := index.WipeEntries(w, t); werr != nil {
				return completed, rolledBack, fmt.Errorf("catalog: wiping dropped index %q: %w", name, werr)
			}
		}
	}
	return completed, rolledBack, nil
}
