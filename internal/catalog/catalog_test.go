package catalog

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"silo/internal/core"
	"silo/internal/index"
)

func newStore(t *testing.T) (*core.Store, *index.Registry, *Catalog) {
	t.Helper()
	opts := core.DefaultOptions(1)
	opts.ManualEpochs = true
	s := core.NewStore(opts)
	t.Cleanup(s.Close)
	reg := index.NewRegistry()
	return s, reg, New(s, reg)
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
	s, reg, c := newStore(t)
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
	s2, reg2, c2 := newStore(t)
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
		a, b := reg.Get(name), reg2.Get(name)
		if b == nil {
			t.Fatalf("index %q not reconstructed", name)
		}
		if a.Unique != b.Unique || a.Entries.ID != b.Entries.ID || a.On.Name != b.On.Name ||
			!reflect.DeepEqual(a.Spec, b.Spec) || !reflect.DeepEqual(a.Include, b.Include) {
			t.Fatalf("index %q declaration mismatch", name)
		}
	}
	if reg2.Get("users_tmp") != nil {
		t.Fatal("dropped index reconstructed")
	}
}

// TestReplayRejectsBadRows: the catalog is the only schema source, so a row
// it cannot apply fails replay with an error naming the row — a sequence
// gap, a table record whose id disagrees with the creation order, and an
// index an earlier release declared with a Go key function (named too).
func TestReplayRejectsBadRows(t *testing.T) {
	users := Record{Kind: KindCreateTable, Name: "users", ID: 1}
	_, _, c := newStore(t)
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
	s, _, c := newStore(t)
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
	s, _, c := newStore(t)
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
	s2, _, c2 := newStore(t)
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

	s, reg, c := newStore(t)
	_ = reg
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
	_, _, c2 := newStore(t)
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
