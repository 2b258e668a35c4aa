package catalog

import (
	"fmt"
	"sync"

	"silo/internal/core"
	"silo/internal/index"
	"silo/internal/trace"
)

// Catalog owns one store's schema lifecycle: the reserved catalog table,
// the DDL append path (live), and the replay path (recovery). All DDL
// entry points serialize on the catalog's mutex; normal transactions are
// unaffected.
//
// A catalog is "live" when DDL actions should be recorded: immediately for
// a fresh database, and from the end of Recover for an existing one. In
// between (schema pre-declared before Recover, the legacy contract) DDL
// entry points only build in-memory state; Recover validates it against
// the replayed records and FinishRecovery records anything the catalog
// does not yet know (bootstrapping legacy directories).
type Catalog struct {
	mu    sync.Mutex
	store *core.Store
	reg   *index.Registry
	table *core.Table

	live bool
	next uint64 // next record sequence number to assign or apply

	// recorded tracks names covered by a catalog record, so FinishRecovery
	// can append records for schema that bypassed the catalog. pending
	// tracks index creates whose ready/drop marker has not been seen;
	// dropped tracks indexes whose latest record is a drop (their entry
	// tables may need a wipe after replay).
	recorded map[string]bool
	pending  []string
	dropped  map[string]bool
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
		store:    s,
		reg:      reg,
		table:    t,
		next:     1,
		recorded: map[string]bool{},
		dropped:  map[string]bool{},
		broken:   map[string]error{},
	}
}

// Table returns the catalog's backing table (the reserved table id 0).
func (c *Catalog) Table() *core.Table { return c.table }

// Live reports whether DDL actions are being recorded.
func (c *Catalog) Live() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// SetLive switches the catalog into recording mode. Open calls it for a
// fresh database; FinishRecovery switches it on itself.
func (c *Catalog) SetLive() {
	c.mu.Lock()
	c.live = true
	c.mu.Unlock()
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
	if rec.Kind == KindCreateTable || rec.Kind == KindCreateIndex {
		c.recorded[rec.Name] = true
	}
	return nil
}

// CreateTable creates (or returns) the named user table, recording the
// creation when live. The reserved catalog name is rejected.
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
	if c.live {
		if err := c.appendLocked(&Record{Kind: KindCreateTable, Name: name, ID: t.ID}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// CreateIndex declares, backfills, and records an index — the DDL entry
// point silo.DB routes through. spec nil marks an opaque KeyFunc
// declaration (recorded, but reconstruction at recovery requires
// re-declaration); include non-nil makes the index covering. When live,
// the create record is durable before the backfill begins and a ready
// record follows its completion, so a crash in between is recoverable
// (roll forward or clean rollback); a failed backfill appends a drop
// record so the half-create is resolved in the log too.
func (c *Catalog) CreateIndex(w *core.Worker, on *core.Table, name string, unique bool, key index.KeyFunc, spec, include []index.Seg) (*index.Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == TableName {
		return nil, fmt.Errorf("catalog: index name %q is reserved", TableName)
	}
	if !c.live || c.reg.Get(name) != nil {
		// Pre-recovery declaration, or idempotent re-creation of an
		// existing name: the registry validates; nothing new to record.
		return c.reg.Create(c.store, w, on, name, unique, key, spec, include)
	}
	// Everything the registry would reject must be rejected BEFORE the
	// create record is logged: a record that adopts an unrelated table's
	// id — or that cannot be re-compiled at replay — would poison the
	// directory (at worst, a replayed drop of the create would wipe the
	// collided table's rows).
	if on == nil {
		return nil, fmt.Errorf("index %q: no table to index", name)
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
		On: on.Name, Unique: unique, Opaque: spec == nil,
		Spec: spec, Include: include,
	}
	if err := c.appendLocked(rec); err != nil {
		return nil, err
	}
	ix, err := c.reg.Create(c.store, w, on, name, unique, key, spec, include)
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
	if c.live {
		if err := c.appendLocked(&Record{Kind: KindDropIndex, Name: name}); err != nil {
			return err
		}
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
// and the log overlap around the checkpoint epoch) are skipped. It
// validates replayed declarations against any pre-declared schema and
// fails with an error naming the table or index on any mismatch: this is
// the constant-time audit that replaces the old per-entry walk.
func (c *Catalog) ApplyCatalogRow(key, val []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live {
		return fmt.Errorf("catalog: replay into a live catalog")
	}
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
	if err != nil {
		return err
	}
	if err := c.applyLocked(&rec); err != nil {
		return err
	}
	c.next = seq + 1
	return nil
}

func (c *Catalog) applyLocked(rec *Record) error {
	switch rec.Kind {
	case KindCreateTable:
		_, err := c.replayTable(rec.Name, rec.ID)
		return err
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

// replayTable materializes (or validates) one recovered table at its
// recorded id.
func (c *Catalog) replayTable(name string, id uint32) (*core.Table, error) {
	if t := c.store.Table(name); t != nil {
		if t.ID != id {
			return nil, fmt.Errorf(
				"catalog: recovered table %q holds id %d in the catalog but was re-declared at id %d — re-declarations must match the catalog's creation order (or be omitted: the catalog reconstructs the schema)",
				name, id, t.ID)
		}
		c.recorded[name] = true
		return t, nil
	}
	if next := uint32(len(c.store.Tables())); next != id {
		holder := "nothing"
		if other := c.store.TableByID(id); other != nil {
			holder = fmt.Sprintf("table %q", other.Name)
		}
		return nil, fmt.Errorf(
			"catalog: recovered table %q holds id %d in the catalog, but the store would assign id %d (%s holds %d) — tables created outside the catalog must be re-declared in their original positions before Recover",
			name, id, next, holder, id)
	}
	t := c.store.CreateTable(name)
	c.recorded[name] = true
	return t, nil
}

// replayIndex materializes (or validates) one recovered index declaration.
// Every create is considered pending until its ready record arrives.
func (c *Catalog) replayIndex(rec *Record) error {
	on := c.store.Table(rec.On)
	if on == nil {
		return fmt.Errorf("catalog: index %q indexes table %q, which no earlier catalog record creates", rec.Name, rec.On)
	}
	if ix := c.reg.Get(rec.Name); ix != nil {
		// Pre-declared (the legacy idiom, and the only way to recover an
		// opaque KeyFunc index): validate the declaration record-for-
		// declaration. The include-list comparison is the covering audit.
		if ix.Entries.ID != rec.ID {
			return fmt.Errorf(
				"catalog: recovered index %q holds entry-table id %d in the catalog but was re-declared at id %d — re-declare in the catalog's creation order",
				rec.Name, rec.ID, ix.Entries.ID)
		}
		if ix.On != on {
			return fmt.Errorf("catalog: recovered index %q indexes table %q, but it was re-declared over %q", rec.Name, rec.On, ix.On.Name)
		}
		if ix.Unique != rec.Unique {
			return fmt.Errorf("catalog: recovered index %q has unique=%v in the catalog, but it was re-declared with unique=%v", rec.Name, rec.Unique, ix.Unique)
		}
		if rec.Opaque != (ix.Spec == nil) {
			return fmt.Errorf("catalog: recovered index %q was declared %s but re-declared %s",
				rec.Name, specKind(rec.Opaque), specKind(ix.Spec == nil))
		}
		if !rec.Opaque && !index.SpecsEqual(ix.Spec, rec.Spec) {
			return fmt.Errorf("catalog: recovered index %q was re-declared with a different key spec than the catalog records", rec.Name)
		}
		if !index.IncludesEqual(ix.Include, rec.Include) {
			return fmt.Errorf(
				"catalog: recovered index %q was re-declared with a different covering include list than its logged entries were written under (catalog: %s, declared: %s)",
				rec.Name, describeInclude(rec.Include), describeInclude(ix.Include))
		}
		c.recorded[rec.Name] = true
		c.pending = append(c.pending, rec.Name)
		delete(c.dropped, rec.Name)
		return nil
	}
	if rec.Opaque {
		return fmt.Errorf(
			"catalog: index %q was declared with an opaque Go KeyFunc, which the catalog cannot reconstruct — re-declare it (in its original creation order) before Recover, or migrate it to a declarative spec",
			rec.Name)
	}
	// Reconstruct from the recorded declaration alone.
	if t := c.store.Table(rec.Name); t != nil {
		// Entry table exists (an earlier create was dropped; this is a
		// re-create adopting the orphan). Validate its position.
		if t.ID != rec.ID {
			return fmt.Errorf("catalog: recovered index %q holds entry-table id %d in the catalog, but table %q already holds id %d", rec.Name, rec.ID, rec.Name, t.ID)
		}
	} else if next := uint32(len(c.store.Tables())); next != rec.ID {
		return fmt.Errorf(
			"catalog: recovered index %q holds entry-table id %d in the catalog, but the store would assign id %d — tables created outside the catalog must be re-declared in their original positions before Recover",
			rec.Name, rec.ID, next)
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
	c.recorded[rec.Name] = true
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
	c.recorded[rec.Name] = true
	c.broken[rec.Name] = cause
	return nil
}

func specKind(opaque bool) string {
	if opaque {
		return "with an opaque Go KeyFunc"
	}
	return "with a declarative key spec"
}

func describeInclude(include []index.Seg) string {
	if include == nil {
		return "not covering"
	}
	return fmt.Sprintf("%d include segments", len(include))
}

// Recorded reports whether name (a table or index) is covered by a
// catalog record — for indexes, that its declaration was validated or
// reconstructed by replay. Recovery uses it to decide which indexes
// still need the per-entry audit: one with no catalog record (a legacy
// directory, or schema declared below the silo layer) has nothing
// byte-authoritative to compare declarations against.
func (c *Catalog) Recorded(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recorded[name]
}

// Pending returns the names of replayed index creates whose ready record
// never arrived — crashes mid-DDL awaiting roll-forward.
func (c *Catalog) Pending() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.pending...)
}

// FinishRecovery completes the DDL lifecycle after log replay and turns
// the catalog live:
//
//   - Pending index creates (create record durable, ready record absent —
//     a crash mid-backfill) are rolled forward: the backfill re-runs,
//     idempotently over whatever entries the log already replayed, and a
//     ready record is appended. If the backfill cannot complete (e.g. a
//     unique violation between recovered rows) the index is rolled back
//     cleanly: unhooked, entries wiped, drop record appended.
//   - Dropped indexes get leftover entries wiped (a crash mid-wipe leaves
//     some behind).
//   - Schema present in the store but absent from the catalog (pre-
//     declared over a legacy directory, or created through store-level
//     APIs) is recorded now, bootstrapping the catalog.
//
// It returns the names rolled forward and rolled back. The store must not
// be taking transactions yet; the epoch counter must already be restarted
// above the recovered epochs so the records and backfills log correctly.
func (c *Catalog) FinishRecovery() (completed, rolledBack []string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, cause := range c.broken {
		return nil, nil, fmt.Errorf("catalog: index %q has a create record that no longer constructs and no resolving drop record: %w", name, cause)
	}
	c.live = true
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

	// Bootstrap records for schema the catalog does not cover, in table-id
	// order (which is creation order).
	for _, t := range c.store.Tables() {
		if t.ID == 0 || c.recorded[t.Name] || c.dropped[t.Name] {
			continue
		}
		if ix := c.reg.Get(t.Name); ix != nil {
			rec := &Record{
				Kind: KindCreateIndex, Name: ix.Name, ID: t.ID,
				On: ix.On.Name, Unique: ix.Unique, Opaque: ix.Spec == nil,
				Spec: ix.Spec, Include: ix.Include,
			}
			if aerr := c.appendLocked(rec); aerr != nil {
				return completed, rolledBack, aerr
			}
			if aerr := c.appendLocked(&Record{Kind: KindIndexReady, Name: ix.Name}); aerr != nil {
				return completed, rolledBack, aerr
			}
			continue
		}
		if aerr := c.appendLocked(&Record{Kind: KindCreateTable, Name: t.Name, ID: t.ID}); aerr != nil {
			return completed, rolledBack, aerr
		}
	}
	return completed, rolledBack, nil
}
