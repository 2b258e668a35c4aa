package index

import (
	"fmt"
	"sync"
	"time"

	"silo/internal/core"
)

// Registry names the indexes of one store, for callers (the network
// server, tooling) that address indexes by name rather than by handle.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*Index
	names  []string // creation order
	// orphans are entry tables left behind by failed Create calls (tables
	// cannot be dropped); a retry of the same name may adopt them.
	orphans map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Index), orphans: make(map[string]bool)}
}

// Get returns the named index, or nil.
func (r *Registry) Get(name string) *Index {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name]
}

// All returns the registered indexes in creation order.
func (r *Registry) All() []*Index {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Index, 0, len(r.names))
	for _, n := range r.names {
		out = append(out, r.byName[n])
	}
	return out
}

// Create declares, backfills, and registers an index in one step — the DDL
// entry point used by silo.DB and the network server. Creations serialize
// on the registry (normal transactions are unaffected).
//
// spec is the declarative segment spec the secondary key is compiled from.
// include, when non-nil, makes the index covering: entry values carry the
// concatenated include segments of each row. Re-creating an existing name
// returns the existing index when the declaration matches (same table,
// same uniqueness, equal specs, and an identical include list — nil
// matching nil) and is an error naming the index otherwise.
//
// The backfill runs in batched transactions on worker w. Writes racing
// the creation are handled: after the maintenance hook is registered,
// Create waits out every transaction that began before registration (two
// epoch advances — stale workers block the epoch, so progress implies
// they finished), and only then scans; later writers see the hook and
// maintain their own entries, which the backfill tolerates. If the
// backfill fails (e.g. a unique violation between existing rows), the
// hook is withdrawn and the partially built entries wiped, so the table
// keeps working and the name can be retried.
func (r *Registry) Create(s *core.Store, w *core.Worker, on *core.Table, name string, unique bool, spec, include []Seg) (*Index, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.byName[name]; ix != nil {
		if ix.On == on && ix.Unique == unique && specsEqual(ix.Spec, spec) && includesEqual(ix.Include, include) {
			return ix, nil
		}
		return nil, fmt.Errorf("index %q already exists with a different declaration", name)
	}
	if on == nil {
		return nil, fmt.Errorf("index %q: no table to index", name)
	}
	if s.Table(name) != nil && !r.orphans[name] {
		return nil, fmt.Errorf("index %q: a table with that name already exists", name)
	}
	key, err := CompileSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("index %q: %w", name, err)
	}
	ix, err := New(s, on, name, unique, key, include...)
	if err != nil {
		return nil, err
	}
	ix.Spec = append([]Seg(nil), spec...)
	if on.Tree.Len() == 0 {
		// Nothing to backfill, so the pre-registration fence has nothing to
		// protect either.
		delete(r.orphans, name)
		r.byName[name] = ix
		r.names = append(r.names, name)
		return ix, nil
	}
	waitPreRegistrationTxns(s)
	if err := ix.Backfill(w); err != nil {
		// Withdraw the half-built index: unhook maintenance, then clear
		// the entries written so far (best effort — an in-flight
		// transaction that loaded the hook before removal may commit one
		// more entry; a retry's backfill surfaces any leftover as a
		// mismatch and the wipe runs again).
		on.RemoveWriteHook(hook{ix})
		r.orphans[name] = true
		if werr := wipeTable(w, ix.Entries); werr != nil {
			return nil, fmt.Errorf("index %q: backfill: %w (cleanup also failed: %v)", name, err, werr)
		}
		return nil, fmt.Errorf("index %q: backfill: %w", name, err)
	}
	delete(r.orphans, name)
	r.byName[name] = ix
	r.names = append(r.names, name)
	return ix, nil
}

// Register records an index declared directly with New (embedded schemas
// that manage their own handles but still want name-based access).
func (r *Registry) Register(ix *Index) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[ix.Name]; !ok {
		r.byName[ix.Name] = ix
		r.names = append(r.names, ix.Name)
	}
}

// Remove unregisters the named index and withdraws its maintenance hook —
// the teardown half of DropIndex and of replaying a logged drop. The entry
// table remains (tables cannot be dropped; its id stays part of the log
// format) and is remembered as an orphan so a later Create under the same
// name can adopt it. The caller is responsible for wiping the entries
// (WipeEntries) when dropping live; a replayed drop gets the wipe from the
// log. Returns the removed index, or nil if the name is not registered.
func (r *Registry) Remove(name string) *Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	ix := r.byName[name]
	if ix == nil {
		return nil
	}
	ix.On.RemoveWriteHook(hook{ix})
	delete(r.byName, name)
	for i, n := range r.names {
		if n == name {
			r.names = append(r.names[:i], r.names[i+1:]...)
			break
		}
	}
	r.orphans[name] = true
	return ix
}

// Orphan reports whether name is an entry table left behind by a failed
// or dropped index, adoptable by a new Create under the same name.
func (r *Registry) Orphan(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.orphans[name]
}

// WipeEntries deletes every row of an index entry table in batched
// transactions — used when dropping an index (the maintenance hook must
// already be withdrawn).
func WipeEntries(w *core.Worker, t *core.Table) error { return wipeTable(w, t) }

// specsEqual reports whether two declarative key specs are equal. A nil
// spec (an index declared with New and a Go KeyFunc) equals nothing, not
// even another nil.
func specsEqual(a, b []Seg) bool {
	if a == nil || b == nil || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// includesEqual compares two include lists. Unlike a key spec, a nil
// include list is a definite statement (not covering), so nil equals nil.
func includesEqual(a, b []Seg) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return specsEqual(a, b)
}

// waitPreRegistrationTxns waits until every transaction that began before
// the caller registered a write hook has finished. It relies on the epoch
// invariant: the global epoch cannot advance past an active worker's
// local epoch, and workers (re-)entering after two advances are ordered
// after the registration, so they observe the hook. Skipped for
// manually-stepped stores (tests drive their own concurrency). The one
// caveat is Worker.RefreshEpoch, which lifts a still-running
// transaction's local epoch; nothing in the tree uses it today.
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

// wipeTable deletes every key of an entry table in batched transactions.
func wipeTable(w *core.Worker, t *core.Table) error {
	var keys [][]byte
	for {
		err := w.Run(func(tx *core.Tx) error {
			keys = keys[:0]
			if err := tx.Scan(t, []byte{0}, nil, func(k, _ []byte) bool {
				keys = append(keys, append([]byte(nil), k...))
				return len(keys) < backfillBatch
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
