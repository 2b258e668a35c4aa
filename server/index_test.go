package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"silo"
	"silo/client"
	"silo/server"
	"silo/wire"
)

// row builds a fixed-offset test row: [city:4][rest...].
func row(city, rest string) []byte {
	v := make([]byte, 4, 4+len(rest))
	copy(v, city)
	return append(v, rest...)
}

// TestIndexOverTheWire drives the whole index lifecycle through frames:
// load rows, CREATE_INDEX (backfill), more writes (automatic maintenance),
// ISCAN resolving entries to rows, entry movement on update, and removal
// on delete.
func TestIndexOverTheWire(t *testing.T) {
	_, _, cl := startServer(t, silo.Options{}, server.Options{}, client.Options{})

	// Rows that exist before the index: the server must backfill them.
	for i, city := range []string{"AMS", "BER", "AMS"} {
		if err := cl.Insert("users", []byte(fmt.Sprintf("u%d", i)), row(city, "pre")); err != nil {
			t.Fatal(err)
		}
	}
	spec := []wire.IndexSeg{{FromValue: true, Off: 0, Len: 4}}
	if err := cl.CreateIndex("users_by_city", "users", false, spec); err != nil {
		t.Fatalf("create index: %v", err)
	}
	// Idempotent re-create.
	if err := cl.CreateIndex("users_by_city", "users", false, spec); err != nil {
		t.Fatalf("re-create index: %v", err)
	}

	// A row written after creation is maintained automatically.
	if err := cl.Insert("users", []byte("u3"), row("AMS", "post")); err != nil {
		t.Fatal(err)
	}

	ams := func() []wire.IndexEntry {
		t.Helper()
		entries, err := cl.IndexScan("users_by_city", []byte("AMS"), []byte("AMT"), 0, false)
		if err != nil {
			t.Fatalf("iscan: %v", err)
		}
		return entries
	}
	entries := ams()
	if len(entries) != 3 {
		t.Fatalf("AMS entries = %d, want 3", len(entries))
	}
	for _, e := range entries {
		if !bytes.Equal(e.SK, []byte("AMS\x00")) || !bytes.HasPrefix(e.Value, []byte("AMS")) {
			t.Fatalf("entry %q/%q resolved to %q", e.SK, e.PK, e.Value)
		}
	}

	// Update moves u0 out of AMS; delete removes u2.
	if err := cl.Put("users", []byte("u0"), row("OSL", "moved")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete("users", []byte("u2")); err != nil {
		t.Fatal(err)
	}
	if entries := ams(); len(entries) != 1 || string(entries[0].PK) != "u3" {
		t.Fatalf("after churn AMS entries = %+v", entries)
	}

	// Limit applies per scan; an oversized limit is rejected, not clamped.
	if entries, err := cl.IndexScan("users_by_city", nil, nil, 1, false); err != nil || len(entries) != 1 {
		t.Fatalf("limited iscan = %d entries, err %v", len(entries), err)
	}
	if _, err := cl.IndexScan("users_by_city", nil, nil, 1<<30, false); err == nil {
		t.Fatal("oversized iscan limit accepted")
	}

	// Direct writes to the entry table are refused (they would corrupt the
	// index); reads of it remain allowed.
	if err := cl.Insert("users_by_city", []byte("bogus"), []byte("u9")); err == nil {
		t.Fatal("direct entry-table write accepted")
	}
	if _, err := cl.Scan("users_by_city", nil, nil, 10); err != nil {
		t.Fatalf("entry-table read refused: %v", err)
	}
}

// TestCoveringIndexOverTheWire drives the covering lifecycle through
// frames: CREATE_INDEX with an include list, covering ISCANs serving
// included fields (never full rows), field freshness after updates, and
// the ErrNotCovering sentinel for a covering scan of an ordinary index.
func TestCoveringIndexOverTheWire(t *testing.T) {
	_, _, cl := startServer(t, silo.Options{}, server.Options{}, client.Options{})

	for i, city := range []string{"AMS", "BER", "AMS"} {
		if err := cl.Insert("users", []byte(fmt.Sprintf("u%d", i)), row(city, "pre")); err != nil {
			t.Fatal(err)
		}
	}
	spec := []wire.IndexSeg{{FromValue: true, Off: 0, Len: 4}}
	incs := []wire.IndexSeg{{FromValue: true, Off: 4, Len: 3}} // first 3 payload bytes
	if err := cl.CreateIndex("users_by_city", "users", false, spec, incs...); err != nil {
		t.Fatalf("create covering index: %v", err)
	}
	// Idempotent re-create with the identical declaration; a different
	// include list is rejected.
	if err := cl.CreateIndex("users_by_city", "users", false, spec, incs...); err != nil {
		t.Fatalf("re-create covering index: %v", err)
	}
	if err := cl.CreateIndex("users_by_city", "users", false, spec,
		wire.IndexSeg{FromValue: true, Off: 4, Len: 5}); err == nil {
		t.Fatal("re-create with a different include list accepted")
	}

	entries, err := cl.IndexScanCovering("users_by_city", []byte("AMS"), []byte("AMT"), 0, false)
	if err != nil {
		t.Fatalf("covering iscan: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("AMS covering entries = %d, want 2", len(entries))
	}
	for _, e := range entries {
		if string(e.Value) != "pre" {
			t.Fatalf("covering entry %q carries fields %q, want %q", e.PK, e.Value, "pre")
		}
	}

	// An update that changes an included field but not the secondary key
	// must refresh the entry value.
	if err := cl.Put("users", []byte("u0"), row("AMS", "new")); err != nil {
		t.Fatal(err)
	}
	entries, err = cl.IndexScanCovering("users_by_city", []byte("AMS"), []byte("AMT"), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range entries {
		got[string(e.PK)] = string(e.Value)
	}
	if got["u0"] != "new" || got["u2"] != "pre" {
		t.Fatalf("covering fields after update = %v", got)
	}

	// Covering scans of a non-covering index are refused with the typed
	// sentinel end to end.
	if err := cl.CreateIndex("users_plain", "users", false, spec); err != nil {
		t.Fatal(err)
	}
	_, err = cl.IndexScanCovering("users_plain", nil, nil, 0, false)
	if !errors.Is(err, client.ErrNotCovering) || !errors.Is(err, silo.ErrNotCovering) {
		t.Errorf("covering scan of plain index: %v does not match both sentinels", err)
	}
}

// TestDropIndexOverTheWire drives DROP_INDEX end to end: create an index,
// drop it, and check that scans of the dropped name and a second drop both
// surface the typed ErrNoIndex sentinel, that SCHEMA stops listing it, and
// that the name is free for a later create with a different declaration.
func TestDropIndexOverTheWire(t *testing.T) {
	_, _, cl := startServer(t, silo.Options{}, server.Options{}, client.Options{})

	for i, city := range []string{"AMS", "BER"} {
		if err := cl.Insert("users", []byte(fmt.Sprintf("u%d", i)), row(city, "pre")); err != nil {
			t.Fatal(err)
		}
	}
	spec := []wire.IndexSeg{{FromValue: true, Off: 0, Len: 4}}
	if err := cl.CreateIndex("users_by_city", "users", false, spec); err != nil {
		t.Fatal(err)
	}
	if entries, err := cl.IndexScan("users_by_city", nil, nil, 0, false); err != nil || len(entries) != 2 {
		t.Fatalf("pre-drop iscan = %d entries, err %v", len(entries), err)
	}

	if err := cl.DropIndex("users_by_city"); err != nil {
		t.Fatalf("drop index: %v", err)
	}
	if _, err := cl.IndexScan("users_by_city", nil, nil, 0, false); !errors.Is(err, client.ErrNoIndex) {
		t.Fatalf("iscan of dropped index: %v", err)
	}
	if err := cl.DropIndex("users_by_city"); !errors.Is(err, client.ErrNoIndex) || !errors.Is(err, silo.ErrNoIndex) {
		t.Fatalf("double drop: %v does not match both sentinels", err)
	}
	sch, err := cl.Schema()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sch.Indexes {
		if sch.Indexes[i].Name == "users_by_city" {
			t.Fatalf("SCHEMA still lists dropped index: %+v", sch.Indexes[i])
		}
	}

	// The name is free again, even for a different declaration; the old
	// entries were wiped, so the fresh backfill is all the new index sees.
	if err := cl.CreateIndex("users_by_city", "users", false,
		[]wire.IndexSeg{{FromValue: true, Off: 0, Len: 2}}); err != nil {
		t.Fatalf("re-create after drop: %v", err)
	}
	if entries, err := cl.IndexScan("users_by_city", nil, nil, 0, false); err != nil || len(entries) != 2 {
		t.Fatalf("post-recreate iscan = %d entries, err %v", len(entries), err)
	}
}

// TestIndexSnapshotOverTheWire checks the snapshot flag: an ISCAN with
// snapshot set reads a consistent past index state.
func TestIndexSnapshotOverTheWire(t *testing.T) {
	db, _, cl := startServer(t,
		silo.Options{EpochInterval: time.Millisecond, SnapshotK: 2},
		server.Options{}, client.Options{})

	if err := cl.Insert("users", []byte("u1"), row("AMS", "x")); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateIndex("users_by_city", "users", false,
		[]wire.IndexSeg{{FromValue: true, Off: 0, Len: 4}}); err != nil {
		t.Fatal(err)
	}

	// Wait until the snapshot horizon has advanced past the insert, then
	// delete the row: the serializable view is empty, the snapshot still
	// sees the row until the horizon catches up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, err := cl.IndexScan("users_by_city", nil, nil, 0, true)
		if err != nil {
			t.Fatalf("snapshot iscan: %v", err)
		}
		if len(entries) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never caught up (epoch %d)", db.Epoch())
		}
		time.Sleep(time.Millisecond)
	}
	if err := cl.Delete("users", []byte("u1")); err != nil {
		t.Fatal(err)
	}
	if entries, err := cl.IndexScan("users_by_city", nil, nil, 0, false); err != nil || len(entries) != 0 {
		t.Fatalf("serializable iscan after delete = %d entries, err %v", len(entries), err)
	}
}

// TestTypedSentinelsEndToEnd is the contract the client package now makes:
// server error strings arrive as typed sentinels that satisfy errors.Is
// against both the client's and silo's canonical errors — no string
// matching anywhere.
func TestTypedSentinelsEndToEnd(t *testing.T) {
	_, _, cl := startServer(t, silo.Options{}, server.Options{},
		client.Options{})

	if err := cl.Insert("t", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Get("t", []byte("missing"))
	if !errors.Is(err, client.ErrNotFound) || !errors.Is(err, silo.ErrNotFound) {
		t.Errorf("missing key: %v does not match both sentinels", err)
	}
	err = cl.Insert("t", []byte("k"), []byte("dup"))
	if !errors.Is(err, client.ErrKeyExists) || !errors.Is(err, silo.ErrKeyExists) {
		t.Errorf("duplicate insert: %v does not match both sentinels", err)
	}
	_, err = cl.IndexScan("ghost_index", nil, nil, 0, false)
	if !errors.Is(err, client.ErrNoIndex) || !errors.Is(err, silo.ErrNoIndex) {
		t.Errorf("unknown index: %v does not match both sentinels", err)
	}
	_, err = cl.Get("t", nil)
	if !errors.Is(err, client.ErrInvalid) || !errors.Is(err, silo.ErrKeyInvalid) {
		t.Errorf("invalid key: %v does not match both sentinels", err)
	}
}

// TestUnknownTableSentinel needs auto-creation off to surface ErrNoTable.
func TestUnknownTableSentinel(t *testing.T) {
	_, _, cl := startServer(t, silo.Options{},
		server.Options{DisableAutoCreate: true}, client.Options{})
	_, err := cl.Get("ghost", []byte("k"))
	if !errors.Is(err, client.ErrNoTable) || !errors.Is(err, silo.ErrNoTable) {
		t.Errorf("unknown table: %v does not match both sentinels", err)
	}
	if err := cl.CreateIndex("ix", "ghost", false,
		[]wire.IndexSeg{{Off: 0, Len: 1}}); !errors.Is(err, silo.ErrNoTable) {
		t.Errorf("create index on unknown table: %v", err)
	}
}

// TestTransformIndexAndSchemaOverTheWire drives the transform vocabulary
// and the catalog-introspection frame end to end: an index whose key spec
// byte-reverses a little-endian row field and bit-inverts a key field is
// declared over the wire, scans serve most-recent-first order, and SCHEMA
// reports the full declaration back — segments, transforms, include
// lists, uniqueness — exactly as declared.
func TestTransformIndexAndSchemaOverTheWire(t *testing.T) {
	_, _, cl := startServer(t, silo.Options{}, server.Options{}, client.Options{})

	// Rows: key = big-endian (group, seq); value = little-endian owner id
	// plus filler. The index key is (owner big-endian, ^seq), so a scan
	// finds an owner's newest seq first.
	key := func(group, seq uint32) []byte {
		k := make([]byte, 8)
		binary.BigEndian.PutUint32(k, group)
		binary.BigEndian.PutUint32(k[4:], seq)
		return k
	}
	val := func(owner uint32) []byte {
		v := make([]byte, 8)
		binary.LittleEndian.PutUint32(v, owner)
		return v
	}
	for seq := uint32(1); seq <= 5; seq++ {
		if err := cl.Insert("events", key(1, seq), val(7)); err != nil {
			t.Fatal(err)
		}
	}
	segs := []wire.IndexSeg{
		{FromValue: true, Off: 0, Len: 4, Xform: wire.XformReverse}, // owner LE → BE
		{Off: 4, Len: 4, Xform: wire.XformInvert},                   // ^seq
	}
	incs := []wire.IndexSeg{{FromValue: true, Off: 0, Len: 4}}
	if err := cl.CreateIndex("events_by_owner", "events", true, segs, incs...); err != nil {
		t.Fatalf("create transform index: %v", err)
	}

	ownerLo := make([]byte, 4)
	binary.BigEndian.PutUint32(ownerLo, 7)
	ownerHi := make([]byte, 4)
	binary.BigEndian.PutUint32(ownerHi, 8)
	entries, err := cl.IndexScan("events_by_owner", ownerLo, ownerHi, 0, false)
	if err != nil {
		t.Fatalf("iscan: %v", err)
	}
	if len(entries) != 5 {
		t.Fatalf("owner 7 entries = %d, want 5", len(entries))
	}
	// Most recent first: the first entry's primary key carries seq 5.
	if got := binary.BigEndian.Uint32(entries[0].PK[4:]); got != 5 {
		t.Fatalf("first entry resolves seq %d, want 5 (most recent first)", got)
	}
	for i := 1; i < len(entries); i++ {
		a := binary.BigEndian.Uint32(entries[i-1].PK[4:])
		b := binary.BigEndian.Uint32(entries[i].PK[4:])
		if a <= b {
			t.Fatalf("entries not in descending seq order: %d then %d", a, b)
		}
	}

	sch, err := cl.Schema()
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	var ix *wire.SchemaIndex
	for i := range sch.Indexes {
		if sch.Indexes[i].Name == "events_by_owner" {
			ix = &sch.Indexes[i]
		}
	}
	if ix == nil {
		t.Fatalf("SCHEMA response does not list events_by_owner (got %+v)", sch.Indexes)
	}
	if !ix.Unique || ix.Opaque || ix.Table != "events" {
		t.Fatalf("schema declaration mismatch: %+v", ix)
	}
	if len(ix.Segs) != len(segs) || len(ix.Incs) != len(incs) {
		t.Fatalf("schema segs/incs = %d/%d, want %d/%d", len(ix.Segs), len(ix.Incs), len(segs), len(incs))
	}
	for i := range segs {
		if ix.Segs[i] != segs[i] {
			t.Fatalf("schema seg %d = %+v, want %+v", i, ix.Segs[i], segs[i])
		}
	}
	if ix.Incs[0] != incs[0] {
		t.Fatalf("schema include = %+v, want %+v", ix.Incs[0], incs[0])
	}
	// The catalog's own table is listed (id 0) and rejects direct writes.
	if len(sch.Tables) == 0 || sch.Tables[0].ID != 0 || sch.Tables[0].Name != silo.CatalogTableName {
		t.Fatalf("schema tables do not lead with the catalog: %+v", sch.Tables)
	}
	err = cl.Put(silo.CatalogTableName, []byte("x"), []byte("y"))
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeIndexTable {
		t.Fatalf("direct catalog write not rejected: %v", err)
	}
}

// TestDroppedEntryTableNotWritable: an entry table stays an entry table
// after its index is dropped — the next create of the name adopts its
// rows — so the server refuses a direct PUT into it exactly as it does
// while the index is live.
func TestDroppedEntryTableNotWritable(t *testing.T) {
	_, _, cl := startServer(t, silo.Options{}, server.Options{}, client.Options{})
	if err := cl.Insert("users", []byte("u0"), row("AMS", "x")); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateIndex("users_by_city", "users", false, []wire.IndexSeg{{FromValue: true, Off: 0, Len: 4}}); err != nil {
		t.Fatal(err)
	}
	putEntry := func(state string) {
		t.Helper()
		// A dangling entry: primary row u9 does not exist.
		for op, write := range map[string]func(string, []byte, []byte) error{"PUT": cl.Put, "INSERT": cl.Insert} {
			err := write("users_by_city", []byte("ZZZZu9"), []byte("u9"))
			var se *client.ServerError
			if !errors.As(err, &se) || se.Code != wire.CodeIndexTable {
				t.Fatalf("%s into a %s index's entry table: %v, want CodeIndexTable", op, state, err)
			}
		}
	}
	putEntry("live")
	if err := cl.DropIndex("users_by_city"); err != nil {
		t.Fatal(err)
	}
	putEntry("dropped")
}
