package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"silo/internal/core"
	"silo/internal/trace"
)

// Test schema: table "users" with primary key u<id> and a fixed-offset row
// [city:4][score:8][name...]; a non-unique index on city and a unique
// index on name exercise both entry encodings.

func userVal(city string, score uint64, name string) []byte {
	v := make([]byte, 12, 12+len(name))
	copy(v, city)
	binary.BigEndian.PutUint64(v[4:], score)
	return append(v, name...)
}

// cityKey and nameKey are the test indexes' key specs: the row's city,
// and the first three bytes of its name.
var (
	cityKey = []Seg{{FromValue: true, Off: 0, Len: 4}}
	nameKey = []Seg{{FromValue: true, Off: 12, Len: 3}}
)

func newStore(t *testing.T, workers int) *core.Store {
	t.Helper()
	opts := core.DefaultOptions(workers)
	opts.ManualEpochs = true
	opts.SnapshotK = 2
	s := core.NewStore(opts)
	t.Cleanup(s.Close)
	return s
}

// maxAttempts bounds the attempts runTx makes of one transaction.
// Worker.Run retries ErrConflict without bound, so a fault that fails
// every attempt — say the GC unhooking the wrong key — would spin until
// the test binary's timeout; runTx fails within a second or so instead.
const maxAttempts = 1000

// runTx is Worker.Run with at most maxAttempts attempts. Past them it
// returns an ErrConflict naming the last abort's reason, table and key
// hash, as the flight recorder has them.
func runTx(w *core.Worker, fn func(tx *core.Tx) error) error {
	for i := 0; i < maxAttempts; i++ {
		if err := w.RunOnce(fn); err != core.ErrConflict {
			return err
		}
	}
	var last trace.Event
	reason := "none recorded"
	for _, e := range w.Store().Flight().Dump() {
		if e.Kind == trace.EvAbort && int(e.Src) == w.ID() {
			last, reason = e, trace.AbortReasonNames[e.Aux]
		}
	}
	return fmt.Errorf("gave up after %d attempts (%w); the last aborted for %s on table %d, key hash %#x",
		maxAttempts, core.ErrConflict, reason, last.Table, last.A)
}

// mustNew declares an index and attaches it to the store.
func mustNew(t testing.TB, s *core.Store, on *core.Table, name string, unique bool, spec []Seg, include ...Seg) *Index {
	t.Helper()
	ix, err := New(new(Counters), on, name, unique, spec, include...)
	if err != nil {
		t.Fatal(err)
	}
	ix.Attach(s)
	return ix
}

// coverWithSnapshot advances newStore's epochs until a snapshot begun now
// sees every write committed so far.
func coverWithSnapshot(s *core.Store) {
	for i := 0; i < 6; i++ {
		s.AdvanceEpoch()
	}
}

func insertUser(t *testing.T, w *core.Worker, users *core.Table, id int, city string, score uint64, name string) {
	t.Helper()
	if err := runTx(w, func(tx *core.Tx) error {
		return tx.Insert(users, []byte(fmt.Sprintf("u%03d", id)), userVal(city, score, name))
	}); err != nil {
		t.Fatalf("insert user %d: %v", id, err)
	}
}

// collect runs a resolving scan and returns "city/pk" strings.
func collect(t *testing.T, w *core.Worker, ix *Index, lo, hi []byte) []string {
	t.Helper()
	var got []string
	if err := runTx(w, func(tx *core.Tx) error {
		got = got[:0]
		return Scan(tx, ix, lo, hi, 0, func(sk, pk, val []byte) bool {
			if !bytes.Equal(sk, val[:len(sk)]) {
				t.Errorf("entry %q resolved to row %q whose key field differs", sk, val)
			}
			got = append(got, fmt.Sprintf("%s/%s", bytes.TrimRight(sk, "\x00"), pk))
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestMaintenanceAndScan(t *testing.T) {
	s := newStore(t, 1)
	users := s.CreateTable("users")
	w := s.Worker(0)
	byCity := mustNew(t, s, users, "users_by_city", false, cityKey)

	insertUser(t, w, users, 1, "AMS", 10, "ada")
	insertUser(t, w, users, 2, "BER", 20, "bob")
	insertUser(t, w, users, 3, "AMS", 30, "cyd")

	got := collect(t, w, byCity, []byte("AMS"), []byte("AMT"))
	want := []string{"AMS/u001", "AMS/u003"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AMS scan = %v, want %v", got, want)
	}

	// Update that moves the secondary key: the old entry vanishes, the new
	// one appears, atomically.
	if err := runTx(w, func(tx *core.Tx) error {
		return tx.Put(users, []byte("u001"), userVal("BER", 11, "ada"))
	}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w, byCity, []byte("AMS"), []byte("AMT")); len(got) != 1 || got[0] != "AMS/u003" {
		t.Fatalf("after move: AMS scan = %v", got)
	}
	if got := collect(t, w, byCity, []byte("BER"), []byte("BES")); len(got) != 2 {
		t.Fatalf("after move: BER scan = %v", got)
	}

	// Update that keeps the secondary key must not touch entries (count is
	// stable and the scan still resolves).
	if err := runTx(w, func(tx *core.Tx) error {
		return tx.Put(users, []byte("u003"), userVal("AMS", 31, "cyd"))
	}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w, byCity, []byte("AMS"), []byte("AMT")); len(got) != 1 {
		t.Fatalf("after same-key update: AMS scan = %v", got)
	}

	// Delete removes the entry.
	if err := runTx(w, func(tx *core.Tx) error {
		return tx.Delete(users, []byte("u003"))
	}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w, byCity, []byte("AMS"), []byte("AMT")); len(got) != 0 {
		t.Fatalf("after delete: AMS scan = %v", got)
	}

	// Insert+delete and delete+reinsert inside one transaction net out.
	if err := runTx(w, func(tx *core.Tx) error {
		if err := tx.Insert(users, []byte("u009"), userVal("AMS", 1, "zed")); err != nil {
			return err
		}
		if err := tx.Delete(users, []byte("u009")); err != nil {
			return err
		}
		if err := tx.Delete(users, []byte("u002")); err != nil {
			return err
		}
		return tx.Insert(users, []byte("u002"), userVal("AMS", 2, "bob"))
	}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w, byCity, []byte("AMS"), []byte("AMT")); len(got) != 1 || got[0] != "AMS/u002" {
		t.Fatalf("after churn txn: AMS scan = %v", got)
	}
}

// TestCoveringRewriteDuringBackfillWindow pins the pre-backfill race: a
// covering index is declared over existing rows (hook live, backfill not
// yet run) and a writer updates a row's included field without moving its
// secondary key. The hook must install the fresh entry rather than
// failing the writer (the rewrite path's Put finds no entry yet), and a
// subsequent Backfill must converge on exactly one fresh entry per row.
func TestCoveringRewriteDuringBackfillWindow(t *testing.T) {
	s := newStore(t, 1)
	users := s.CreateTable("users")
	w := s.Worker(0)
	insertUser(t, w, users, 1, "AMS", 10, "ada")
	insertUser(t, w, users, 2, "AMS", 20, "bob")

	byCity := mustNew(t, s, users, "users_by_city", false, cityKey,
		Seg{FromValue: true, Off: 4, Len: 8}) // the score field
	// Hook live, zero entries: update u001's score (sk unchanged).
	if err := runTx(w, func(tx *core.Tx) error {
		return tx.Put(users, []byte("u001"), userVal("AMS", 11, "ada"))
	}); err != nil {
		t.Fatalf("update during backfill window: %v", err)
	}
	if got := byCity.Entries.Tree.Len(); got != 1 {
		t.Fatalf("hook installed %d entries, want 1", got)
	}
	if err := byCity.Backfill(w); err != nil {
		t.Fatal(err)
	}
	// Exactly one entry per row, each carrying the current score.
	var got []string
	if err := runTx(w, func(tx *core.Tx) error {
		got = got[:0]
		return ScanCovering(tx, byCity, []byte("AMS"), []byte("AMT"), 0, func(_, pk, fields []byte) bool {
			got = append(got, fmt.Sprintf("%s=%d", pk, binary.BigEndian.Uint64(fields)))
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[u001=11 u002=20]" {
		t.Fatalf("after backfill: %v", got)
	}
}

func TestBackfillAndIdempotence(t *testing.T) {
	s := newStore(t, 1)
	users := s.CreateTable("users")
	w := s.Worker(0)

	// More rows than one backfill batch, loaded before the index exists.
	const n = backfillBatch*2 + 17
	if err := runTx(w, func(tx *core.Tx) error {
		for i := 0; i < n; i++ {
			city := fmt.Sprintf("C%02d", i%7)
			if err := tx.Insert(users, []byte(fmt.Sprintf("u%04d", i)), userVal(city, uint64(i), fmt.Sprintf("name%04d", i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	byCity := mustNew(t, s, users, "users_by_city", false, cityKey)
	if err := byCity.Backfill(w); err != nil {
		t.Fatal(err)
	}
	if got := byCity.Entries.Tree.Len(); got != n {
		t.Fatalf("backfill created %d entries, want %d", got, n)
	}
	// A second backfill is a no-op.
	if err := byCity.Backfill(w); err != nil {
		t.Fatal(err)
	}
	if got := byCity.Entries.Tree.Len(); got != n {
		t.Fatalf("re-backfill changed entry count to %d", got)
	}
	// Every row is reachable through the index.
	total := 0
	for c := 0; c < 7; c++ {
		lo := []byte(fmt.Sprintf("C%02d", c))
		hi := []byte(fmt.Sprintf("C%02d\xff", c))
		total += len(collect(t, w, byCity, lo, hi))
	}
	if total != n {
		t.Fatalf("index scans found %d rows, want %d", total, n)
	}
}

func TestUniqueIndex(t *testing.T) {
	s := newStore(t, 1)
	users := s.CreateTable("users")
	w := s.Worker(0)
	byName := mustNew(t, s, users, "users_by_name", true, nameKey)

	insertUser(t, w, users, 1, "AMS", 1, "ada")
	insertUser(t, w, users, 2, "BER", 2, "bob")

	// Lookup resolves through the entry to the row.
	if err := runTx(w, func(tx *core.Tx) error {
		pk, val, err := Lookup(tx, byName, []byte("bob"))
		if err != nil {
			return err
		}
		if string(pk) != "u002" || string(val[12:]) != "bob" {
			t.Errorf("Lookup(bob) = %q, %q", pk, val)
		}
		if _, _, err := Lookup(tx, byName, []byte("eve")); err != core.ErrNotFound {
			t.Errorf("Lookup(eve) err = %v, want ErrNotFound", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// A duplicate secondary key aborts the inserting transaction.
	err := w.RunOnce(func(tx *core.Tx) error {
		return tx.Insert(users, []byte("u003"), userVal("AMS", 3, "bob"))
	})
	if err != core.ErrKeyExists {
		t.Fatalf("duplicate name insert err = %v, want ErrKeyExists", err)
	}
	if _, err := getRow(w, users, "u003"); err != core.ErrNotFound {
		t.Fatalf("conflicting row committed anyway: err = %v", err)
	}
}

func getRow(w *core.Worker, tbl *core.Table, pk string) ([]byte, error) {
	var out []byte
	err := runTx(w, func(tx *core.Tx) error {
		v, err := tx.Get(tbl, []byte(pk))
		out = v
		return err
	})
	return out, err
}

// TestHookFailurePoisonsCommit drives the tx.fail path directly: a caller
// that swallows a unique-violation error and commits anyway must not be
// able to commit the half-maintained transaction.
func TestHookFailurePoisonsCommit(t *testing.T) {
	s := newStore(t, 1)
	users := s.CreateTable("users")
	w := s.Worker(0)
	mustNew(t, s, users, "users_by_name", true, nameKey)

	insertUser(t, w, users, 1, "AMS", 1, "ada")

	tx := w.Begin()
	if err := tx.Insert(users, []byte("u002"), userVal("BER", 2, "ada")); err != core.ErrKeyExists {
		t.Fatalf("insert err = %v, want ErrKeyExists", err)
	}
	if err := tx.Commit(); err != core.ErrKeyExists {
		t.Fatalf("poisoned commit err = %v, want ErrKeyExists", err)
	}
	if _, err := getRow(w, users, "u002"); err != core.ErrNotFound {
		t.Fatalf("poisoned transaction committed its row: err = %v", err)
	}
}

// TestDanglingEntryConflicts plants an orphan entry (simulating a
// concurrent writer between the two trees, or a corrupted index) and
// checks the resolver's answer under each reader: a serializable scan
// whose reads validate reports ErrDanglingEntry instead of fabricating a
// row, and a snapshot scan — where no writer can be in between — skips the
// entry.
func TestDanglingEntryConflicts(t *testing.T) {
	s := newStore(t, 1)
	users := s.CreateTable("users")
	w := s.Worker(0)
	byCity := mustNew(t, s, users, "users_by_city", false, cityKey)

	insertUser(t, w, users, 1, "AMS", 1, "ada")
	if err := runTx(w, func(tx *core.Tx) error {
		return tx.Insert(byCity.Entries, []byte("AMSu999"), []byte("u999"))
	}); err != nil {
		t.Fatal(err)
	}
	coverWithSnapshot(s)
	var got []string
	scan := func(r core.Reader) error {
		got = got[:0]
		return Scan(r, byCity, []byte("AMS"), []byte("AMT"), 0, func(sk, pk, val []byte) bool {
			got = append(got, string(pk))
			return true
		})
	}
	err := w.RunOnce(func(tx *core.Tx) error { return scan(tx) })
	if err != ErrDanglingEntry {
		t.Fatalf("dangling entry scan err = %v, want ErrDanglingEntry", err)
	}
	if err := w.RunSnapshot(func(stx *core.SnapTx) error { return scan(stx) }); err != nil {
		t.Fatalf("snapshot scan over a dangling entry: %v", err)
	}
	if fmt.Sprint(got) != "[u001]" {
		t.Fatalf("snapshot scan over a dangling entry = %v, want [u001]", got)
	}
}

// TestDanglingEntryEndsRun checks that Run, which retries ErrConflict
// without bound, returns a dangling entry's error instead of retrying it:
// the entry is still there on every attempt.
func TestDanglingEntryEndsRun(t *testing.T) {
	s := newStore(t, 1)
	users := s.CreateTable("users")
	w := s.Worker(0)
	byCity := mustNew(t, s, users, "users_by_city", false, cityKey)
	if err := runTx(w, func(tx *core.Tx) error {
		return tx.Insert(byCity.Entries, []byte("AMSu999"), []byte("u999"))
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(tx *core.Tx) error {
			return Scan(tx, byCity, []byte("AMS"), []byte("AMT"), 0, func(_, _, _ []byte) bool { return true })
		})
	}()
	select {
	case err := <-done:
		if err != ErrDanglingEntry {
			t.Fatalf("Run over a dangling entry = %v, want ErrDanglingEntry", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run over a dangling entry did not return")
	}
}

func TestSnapshotScan(t *testing.T) {
	s := newStore(t, 1)
	users := s.CreateTable("users")
	w := s.Worker(0)
	byCity := mustNew(t, s, users, "users_by_city", false, cityKey)

	insertUser(t, w, users, 1, "AMS", 1, "ada")
	insertUser(t, w, users, 2, "AMS", 2, "bob")

	// Advance far enough that the snapshot epoch covers the inserts, then
	// change the index; the snapshot must see the old index state.
	coverWithSnapshot(s)
	if err := runTx(w, func(tx *core.Tx) error {
		if err := tx.Put(users, []byte("u001"), userVal("BER", 1, "ada")); err != nil {
			return err
		}
		return tx.Delete(users, []byte("u002"))
	}); err != nil {
		t.Fatal(err)
	}

	var snap []string
	if err := w.RunSnapshot(func(stx *core.SnapTx) error {
		return Scan(stx, byCity, []byte("AMS"), []byte("AMT"), 0, func(sk, pk, val []byte) bool {
			snap = append(snap, string(pk))
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(snap) != "[u001 u002]" {
		t.Fatalf("snapshot index scan = %v, want both pre-change rows", snap)
	}
	// The serializable view sees the new state.
	if got := collect(t, w, byCity, []byte("AMS"), []byte("AMT")); len(got) != 0 {
		t.Fatalf("live AMS scan after changes = %v", got)
	}
}

func TestCompileSpec(t *testing.T) {
	fn, err := compileSpec([]Seg{{FromValue: true, Off: 4, Len: 8}, {Off: 0, Len: 2}})
	if err != nil {
		t.Fatal(err)
	}
	pk := []byte("u001")
	val := userVal("AMS", 0x0102030405060708, "ada")
	sk, ok := fn(nil, pk, val)
	if !ok {
		t.Fatal("row not indexed")
	}
	want := append(binary.BigEndian.AppendUint64(nil, 0x0102030405060708), 'u', '0')
	if !bytes.Equal(sk, want) {
		t.Fatalf("sk = %x want %x", sk, want)
	}
	// Short row: unindexed, not an error.
	if _, ok := fn(nil, pk, []byte("tiny")); ok {
		t.Fatal("short row was indexed")
	}
	// Invalid specs.
	if _, err := compileSpec(nil); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := compileSpec([]Seg{{Off: 0, Len: 0}}); err == nil {
		t.Fatal("zero-length segment accepted")
	}
	if _, err := compileSpec(make([]Seg, MaxSpecSegs+1)); err == nil {
		t.Fatal("oversized spec accepted")
	}
}
