package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"silo/internal/core"
	"silo/internal/index"
)

func newStore(t *testing.T) (*core.Store, *Catalog) {
	t.Helper()
	opts := core.DefaultOptions(1)
	opts.ManualEpochs = true
	s := core.NewStore(opts)
	t.Cleanup(s.Close)
	return s, New(s)
}

// userRow is a fixed-offset test row: [city:4][score:8][name...].
func userRow(city string, score uint64, name string) []byte {
	v := make([]byte, 12, 12+len(name))
	copy(v, city)
	binary.BigEndian.PutUint64(v[4:], score)
	return append(v, name...)
}

func insertUser(t *testing.T, w *core.Worker, users *core.Table, id int, city string, score uint64, name string) {
	t.Helper()
	if err := w.Run(func(tx *core.Tx) error {
		return tx.Insert(users, []byte(fmt.Sprintf("u%03d", id)), userRow(city, score, name))
	}); err != nil {
		t.Fatalf("insert user %d: %v", id, err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range []Record{
		{Kind: KindCreateTable, Name: "users", ID: 3},
		{Kind: KindIndexReady, Name: "ix"},
		{Kind: KindDropIndex, Name: "ix"},
		{Kind: KindCreateIndex, Name: "ix", ID: 2, On: "users", Unique: true,
			Spec: []index.Seg{
				{Off: 0, Len: 8},
				{FromValue: true, Off: 0, Len: 4, Xform: index.XformReverse},
				{Off: 8, Len: 4, Xform: index.XformInvert},
			}},
		{Kind: KindCreateIndex, Name: "cov", ID: 5, On: "users",
			Spec:    []index.Seg{{FromValue: true, Off: 0, Len: 1}},
			Include: []index.Seg{{FromValue: true, Off: 0, Len: 4}}},
	} {
		got, err := DecodeRecord(rec.Encode(nil))
		if err != nil {
			t.Fatalf("%+v: %v", rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", rec, got)
		}
	}
	for _, bad := range [][]byte{
		nil,
		{0},
		{99, KindCreateTable, 0, 0, 0, 0, 0, 0}, // unknown version
		{recordVersion, 77, 0, 0, 0, 0, 0, 0},   // unknown kind
		{recordVersion, KindCreateTable, 0, 0, 0, 0, 5, 0}, // truncated name
	} {
		if _, err := DecodeRecord(bad); err == nil {
			t.Fatalf("malformed record %x decoded", bad)
		}
	}
	// An index an earlier release declared with a Go key function: its
	// record says so and carries no spec, and it no longer decodes.
	if _, err := DecodeRecord(opaqueCreate("opq", 7, "users")); !errors.Is(err, ErrBadRecord) || !strings.Contains(err.Error(), `"opq"`) {
		t.Fatalf("opaque create record: %v", err)
	}
}

// opaqueCreate encodes the create record an earlier release wrote for an
// index declared with a Go key function: flag bit 1 set, no key spec.
func opaqueCreate(name string, id uint32, on string) []byte {
	rec := Record{Kind: KindCreateIndex, Name: name, ID: id, On: on}
	b := rec.Encode(nil)
	b[len(b)-3] |= flagOpaque // flags, then two empty segment lists
	return b
}

// TestLiveDDLAndReplay is the catalog's core contract: every DDL action is
// recorded such that applying the recorded rows to a fresh, empty store
// reconstructs the identical schema — ids, uniqueness, specs with
// transforms, include lists, drops.
func TestLiveDDLAndReplay(t *testing.T) {
	s, c := newStore(t)
	w := s.Worker(0)

	users, err := c.CreateTable("users")
	if err != nil || users.ID != 1 {
		t.Fatalf("users: %v id=%d", err, users.ID)
	}
	if again, err := c.CreateTable("users"); err != nil || again != users {
		t.Fatalf("idempotent create: %v", err)
	}
	if _, err := c.CreateTable(TableName); err == nil {
		t.Fatal("reserved name accepted")
	}
	spec := []index.Seg{{FromValue: true, Off: 0, Len: 4, Xform: index.XformReverse}}
	if _, err := c.CreateIndex(w, users, "users_ix", true, spec, nil); err != nil {
		t.Fatal(err)
	}
	inc := []index.Seg{{FromValue: true, Off: 0, Len: 2}}
	if _, err := c.CreateIndex(w, users, "users_cov", false, spec, inc); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("posts"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex(w, users, "users_tmp", false, spec, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("users_tmp"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("users_tmp"); !errors.Is(err, index.ErrNoIndex) {
		t.Fatalf("double drop: %v", err)
	}

	// Replay the recorded rows into a fresh store with zero declarations.
	s2, c2 := newStore(t)
	var rows [][2][]byte
	if err := s.Worker(0).Run(func(tx *core.Tx) error {
		rows = rows[:0]
		return tx.Scan(c.Table(), []byte{0}, nil, func(k, v []byte) bool {
			rows = append(rows, [2][]byte{append([]byte(nil), k...), append([]byte(nil), v...)})
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	for _, kv := range rows {
		if err := c2.ApplyCatalogRow(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c2.FinishRecovery(nil); err != nil {
		t.Fatal(err)
	}

	for _, tbl := range s.Tables() {
		got := s2.TableByID(tbl.ID)
		if got == nil || got.Name != tbl.Name {
			t.Fatalf("table %d %q not reconstructed (got %v)", tbl.ID, tbl.Name, got)
		}
	}
	for _, name := range []string{"users_ix", "users_cov"} {
		a, b := c.Index(name), c2.Index(name)
		if b == nil {
			t.Fatalf("index %q not reconstructed", name)
		}
		if a.Unique != b.Unique || a.Entries.ID != b.Entries.ID || a.On.Name != b.On.Name ||
			!reflect.DeepEqual(a.Spec, b.Spec) || !reflect.DeepEqual(a.Include, b.Include) {
			t.Fatalf("index %q declaration mismatch", name)
		}
	}
	if c2.Index("users_tmp") != nil {
		t.Fatal("dropped index reconstructed")
	}
	if !c2.IsEntryTable("users_tmp") {
		t.Fatal("the dropped index's entry table is not known as one after replay")
	}
}

// TestCreateIndexDeclarations: CreateIndex backfills and names the index,
// is idempotent for the identical declaration, and rejects a different
// uniqueness, spec or include list under the name, a name a plain table
// holds, and a spec that does not compile.
func TestCreateIndexDeclarations(t *testing.T) {
	s, c := newStore(t)
	w := s.Worker(0)
	users, _ := c.CreateTable("users")
	insertUser(t, w, users, 1, "AMS", 1, "ada")

	spec := []index.Seg{{FromValue: true, Off: 0, Len: 4}}
	ix, err := c.CreateIndex(w, users, "users_by_city", false, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Entries.Tree.Len(); got != 1 {
		t.Fatalf("backfilled entries = %d", got)
	}
	if c.Index("users_by_city") != ix {
		t.Fatal("index lookup by name failed")
	}
	if c.Index("nope") != nil {
		t.Fatal("lookup returned a ghost")
	}
	if again, err := c.CreateIndex(w, users, "users_by_city", false, spec, nil); err != nil || again != ix {
		t.Fatalf("re-create = %v, %v", again, err)
	}
	if _, err := c.CreateIndex(w, users, "users_by_city", true, spec, nil); err == nil {
		t.Fatal("mismatched uniqueness accepted")
	}
	other := []index.Seg{{FromValue: true, Off: 4, Len: 8}}
	if _, err := c.CreateIndex(w, users, "users_by_city", false, other, nil); err == nil {
		t.Fatal("mismatched spec accepted")
	}
	if _, err := c.CreateIndex(w, users, "users_by_city", false, spec, spec); err == nil {
		t.Fatal("mismatched include list accepted")
	}
	if _, err := c.CreateIndex(w, users, "users", false, spec, nil); err == nil {
		t.Fatal("index named after an existing table accepted")
	}
	if _, err := c.CreateIndex(w, users, "users_bad", false, nil, nil); err == nil {
		t.Fatal("empty spec accepted")
	}
	if all := c.Indexes(); len(all) != 1 || all[0] != ix {
		t.Fatalf("Indexes() = %v", all)
	}
}

// TestCreateBackfillFailureCleansUp drives the failed-DDL path: a unique
// index over rows that collide must fail, withdraw its maintenance hook,
// wipe the partial entries, leave its entry table behind, and leave the
// name retryable.
func TestCreateBackfillFailureCleansUp(t *testing.T) {
	s, c := newStore(t)
	w := s.Worker(0)
	users, _ := c.CreateTable("users")
	insertUser(t, w, users, 1, "AMS", 1, "dup")
	insertUser(t, w, users, 2, "BER", 2, "dup") // same name: unique violation

	nameSpec := []index.Seg{{FromValue: true, Off: 12, Len: 3}}
	if _, err := c.CreateIndex(w, users, "users_by_name", true, nameSpec, nil); err == nil {
		t.Fatal("unique backfill over colliding rows succeeded")
	}
	if c.Index("users_by_name") != nil {
		t.Fatal("failed index is named")
	}
	if !c.IsEntryTable("users_by_name") {
		t.Fatal("the failed index's entry table is not known as one")
	}
	// The hook is withdrawn: ordinary writes work again (they would hit
	// the 'out of sync' path if maintenance were still wired up).
	insertUser(t, w, users, 3, "OSL", 3, "carl")
	if err := w.Run(func(tx *core.Tx) error {
		return tx.Delete(users, []byte("u003"))
	}); err != nil {
		t.Fatalf("table writes broken after failed create: %v", err)
	}
	// Partial entries were wiped.
	orphan := s.Table("users_by_name")
	if orphan == nil {
		t.Fatal("entry table missing")
	}
	n := 0
	if err := w.Run(func(tx *core.Tx) error {
		n = 0
		return tx.Scan(orphan, []byte{0}, nil, func(_, _ []byte) bool {
			n++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("%d stale entries survive the failed create", n)
	}
	// The name is retryable with a workable declaration, adopting the
	// entry table left behind.
	ix, err := c.CreateIndex(w, users, "users_by_name", false, nameSpec, nil)
	if err != nil {
		t.Fatalf("retry after failed create: %v", err)
	}
	if ix.Entries != orphan {
		t.Fatal("the retry did not adopt the left-behind entry table")
	}
	if got := ix.Entries.Tree.Len(); got < 2 {
		t.Fatalf("retried backfill produced %d entries", got)
	}
}

// TestReplayRejectsBadRows: the catalog is the only schema source, so a row
// it cannot apply fails replay with an error naming the row — a sequence
// gap, a table record whose id disagrees with the creation order, and an
// index an earlier release declared with a Go key function (named too).
func TestReplayRejectsBadRows(t *testing.T) {
	users := Record{Kind: KindCreateTable, Name: "users", ID: 1}
	_, c := newStore(t)
	if err := c.ApplyCatalogRow(SeqKey(1), users.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyCatalogRow(SeqKey(3), users.Encode(nil)); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("sequence gap: %v", err)
	}
	posts := Record{Kind: KindCreateTable, Name: "posts", ID: 5}
	if err := c.ApplyCatalogRow(SeqKey(2), posts.Encode(nil)); err == nil || !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), "posts") {
		t.Fatalf("table at the wrong id: %v", err)
	}
	if err := c.ApplyCatalogRow(SeqKey(2), users.Encode(nil)); err == nil || !strings.Contains(err.Error(), "users") {
		t.Fatalf("table created twice: %v", err)
	}
	err := c.ApplyCatalogRow(SeqKey(2), opaqueCreate("opq_ix", 2, "users"))
	if err == nil || !strings.Contains(err.Error(), "opq_ix") || !strings.Contains(err.Error(), "record 2") {
		t.Fatalf("opaque create not rejected naming the index and the row: %v", err)
	}
}

// TestCatalogRecordsSurviveAsRows sanity-checks the storage shape: one row
// per DDL action, keyed by sequence number, decodable in order.
func TestCatalogRecordsSurviveAsRows(t *testing.T) {
	s, c := newStore(t)
	if _, err := c.CreateTable("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("b"); err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := s.Worker(0).Run(func(tx *core.Tx) error {
		names = names[:0]
		return tx.Scan(c.Table(), []byte{0}, nil, func(k, v []byte) bool {
			seq, err := ParseSeqKey(k)
			if err != nil {
				t.Errorf("bad key %x: %v", k, err)
			}
			rec, err := DecodeRecord(v)
			if err != nil {
				t.Errorf("bad record at %d: %v", seq, err)
			}
			names = append(names, fmt.Sprintf("%d:%s", seq, rec.Name))
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"1:a", "2:b"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("catalog rows %v, want %v", names, want)
	}
}

// TestCreateIndexNameCollisionLogsNothing pins the review finding that a
// CREATE_INDEX whose name collides with an existing table must be
// rejected before any record is logged: a create record adopting the
// collided table's id would make the next recovery treat that table as a
// dropped index's entry table and wipe its rows.
func TestCreateIndexNameCollisionLogsNothing(t *testing.T) {
	s, c := newStore(t)
	w := s.Worker(0)
	users, _ := c.CreateTable("users")
	orders, _ := c.CreateTable("orders")
	if err := w.Run(func(tx *core.Tx) error {
		return tx.Insert(orders, []byte("o1"), []byte("rowdata"))
	}); err != nil {
		t.Fatal(err)
	}

	spec := []index.Seg{{FromValue: true, Off: 0, Len: 2}}
	if _, err := c.CreateIndex(w, users, "orders", false, spec, nil); err == nil {
		t.Fatal("index named after an existing table accepted")
	}
	// And a bad key spec or include list is rejected before logging, too.
	if _, err := c.CreateIndex(w, users, "users_ix", false, nil, nil); err == nil {
		t.Fatal("empty key spec accepted")
	}
	if _, err := c.CreateIndex(w, users, "users_cov", false, spec, []index.Seg{{Off: 0, Len: 0}}); err == nil {
		t.Fatal("invalid include list accepted")
	}
	// Nothing but the two table creates may be in the catalog.
	n := 0
	if err := w.Run(func(tx *core.Tx) error {
		n = 0
		return tx.Scan(c.Table(), []byte{0}, nil, func(_, v []byte) bool {
			rec, err := DecodeRecord(v)
			if err != nil {
				t.Errorf("bad record: %v", err)
			} else if rec.Kind != KindCreateTable {
				t.Errorf("unexpected record %d for %q after rejected DDL", rec.Kind, rec.Name)
			}
			n++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("%d catalog records after rejected DDL, want 2 table creates", n)
	}

	// Replaying this catalog must keep the orders table and its row.
	s2, c2 := newStore(t)
	var rows [][2][]byte
	if err := w.Run(func(tx *core.Tx) error {
		rows = rows[:0]
		return tx.Scan(c.Table(), []byte{0}, nil, func(k, v []byte) bool {
			rows = append(rows, [2][]byte{append([]byte(nil), k...), append([]byte(nil), v...)})
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	for _, kv := range rows {
		if err := c2.ApplyCatalogRow(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c2.FinishRecovery(nil); err != nil {
		t.Fatal(err)
	}
	if tb := s2.Table("orders"); tb == nil || tb.ID != 2 {
		t.Fatalf("orders table not reconstructed at its id: %v", tb)
	}
}

// TestReplayToleratesBrokenCreateResolvedByDrop pins the second review
// finding: a create record that no longer constructs (simulating a
// corrupt declaration) must not brick recovery when the drop record that
// resolved it follows; only an unresolved broken create fails, naming
// the index.
func TestReplayToleratesBrokenCreateResolvedByDrop(t *testing.T) {
	bad := Record{Kind: KindCreateIndex, Name: "bad_ix", ID: 2, On: "users",
		Spec: []index.Seg{{Off: 0, Len: 4}}, Include: []index.Seg{{Off: 0, Len: 0}}}
	// Encode bypasses validation (the live path validates first), standing
	// in for a corrupt row.
	tbl := Record{Kind: KindCreateTable, Name: "users", ID: 1}
	drop := Record{Kind: KindDropIndex, Name: "bad_ix"}

	s, c := newStore(t)
	if err := c.ApplyCatalogRow(SeqKey(1), tbl.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyCatalogRow(SeqKey(2), bad.Encode(nil)); err != nil {
		t.Fatalf("broken create not tolerated: %v", err)
	}
	if err := c.ApplyCatalogRow(SeqKey(3), drop.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FinishRecovery(nil); err != nil {
		t.Fatalf("drop-resolved broken create failed recovery: %v", err)
	}
	// Entry-table id accounting must not have skewed.
	if tb := s.Table("bad_ix"); tb == nil || tb.ID != 2 {
		t.Fatalf("broken create's entry table not materialized at its id: %v", tb)
	}

	// Without the resolving drop, recovery fails naming the index.
	_, c2 := newStore(t)
	if err := c2.ApplyCatalogRow(SeqKey(1), tbl.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := c2.ApplyCatalogRow(SeqKey(2), bad.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	started := false
	if _, _, err := c2.FinishRecovery(func() error { started = true; return nil }); err == nil || !strings.Contains(err.Error(), "bad_ix") {
		t.Fatalf("unresolved broken create not rejected naming the index: %v", err)
	}
	if started {
		t.Fatal("FinishRecovery started logging before failing")
	}
}

// TestRollForwardKeepsCreationOrder: an index whose ready record never
// arrived is rolled forward by FinishRecovery and keeps its place in
// creation order ahead of a later, ready index.
func TestRollForwardKeepsCreationOrder(t *testing.T) {
	spec := []index.Seg{{FromValue: true, Off: 0, Len: 4}}
	_, c := newStore(t)
	for i, rec := range []Record{
		{Kind: KindCreateTable, Name: "users", ID: 1},
		{Kind: KindCreateIndex, Name: "first", ID: 2, On: "users", Spec: spec},
		{Kind: KindCreateIndex, Name: "second", ID: 3, On: "users", Spec: spec},
		{Kind: KindIndexReady, Name: "second"},
	} {
		if err := c.ApplyCatalogRow(SeqKey(uint64(i+1)), rec.Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	completed, _, err := c.FinishRecovery(nil)
	if err != nil || !reflect.DeepEqual(completed, []string{"first"}) {
		t.Fatalf("FinishRecovery = %v, %v; want [first] rolled forward", completed, err)
	}
	var names []string
	for _, ix := range c.Indexes() {
		names = append(names, ix.Name)
	}
	if !reflect.DeepEqual(names, []string{"first", "second"}) {
		t.Fatalf("Indexes() = %v, want creation order [first second]", names)
	}
}

// TestLookupsDuringDDL: name lookups take no lock, so they run beside
// creates and drops (run it under -race). A named index is always an entry
// table, and a name, once an entry table, stays one.
func TestLookupsDuringDDL(t *testing.T) {
	s, c := newStore(t)
	w := s.Worker(0)
	users, _ := c.CreateTable("users")
	insertUser(t, w, users, 1, "AMS", 1, "ada")
	spec := []index.Seg{{FromValue: true, Off: 0, Len: 4}}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Index first: a create between the two reads must not
				// pair a named index with an earlier "not an entry table".
				ix := c.Index("users_by_city")
				entry := c.IsEntryTable("users_by_city")
				if ix != nil && (ix.Name != "users_by_city" || !entry) {
					t.Errorf("Index returned %q, IsEntryTable %v", ix.Name, entry)
				}
				if seen && !entry {
					t.Error("an entry table stopped being one")
				}
				seen = seen || entry
				for _, ix := range c.Indexes() {
					if ix.Entries == nil {
						t.Error("Indexes listed an index without its entry table")
					}
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, err := c.CreateIndex(w, users, "users_by_city", false, spec, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.DropIndex("users_by_city"); err != nil {
			t.Fatal(err)
		}
	}
}
