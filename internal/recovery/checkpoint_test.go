package recovery

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"silo/internal/core"
	"silo/internal/obs"
	"silo/internal/vfs"
	"silo/internal/wal"
)

// binKey spreads keys across the whole first-byte space so a partitioned
// checkpoint exercises every partition.
func binKey(i int) []byte {
	b := make([]byte, 6)
	b[0] = byte(i * 37)
	b[1] = byte(i >> 8)
	binary.BigEndian.PutUint32(b[2:], uint32(i))
	return b
}

// ckptStore builds a catalogStore with manual epochs and the one table
// "t", loads n keys across the key space, and pushes epochs far enough that
// a snapshot covers them. A checkpoint of it holds n+1 rows: the keys and
// the catalog's row creating "t".
func ckptStore(t *testing.T, n int) (*core.Store, *core.Table) {
	t.Helper()
	opts := manualOpts()
	opts.Workers = 2
	s, _ := catalogStore(t, opts, "t")
	t.Cleanup(s.Close)
	tbl := s.Table("t")
	w := s.Worker(0)
	for i := 0; i < n; i++ {
		i := i
		if err := w.Run(func(tx *core.Tx) error {
			return tx.Insert(tbl, binKey(i), []byte(fmt.Sprintf("v%d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		s.AdvanceEpoch()
	}
	return s, tbl
}

// loadCheckpoint recovers a directory that holds checkpoints and no log,
// returning the epoch and row count of the set it loaded.
func loadCheckpoint(t *testing.T, dir string, workers int) (ce uint64, rows int, err error) {
	_, res, err := recoverDir(t, dir, Options{Workers: workers})
	return res.CheckpointEpoch, res.CheckpointRows, err
}

// dump captures a table's logical contents.
func dump(t *testing.T, s *core.Store, tbl *core.Table) map[string]string {
	t.Helper()
	if tbl == nil {
		t.Fatal("dump of a table the store does not hold")
	}
	out := map[string]string{}
	if err := s.Worker(0).Run(func(tx *core.Tx) error {
		clear(out)
		return tx.Scan(tbl, []byte{0}, nil, func(k, v []byte) bool {
			out[string(k)] = string(v)
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// randomImage draws database content the way a property test would: a few
// tables, binary keys of 1 to 30 arbitrary bytes, values of 0 to 39 — empty
// ones included.
func randomImage(rng *rand.Rand) []map[string]string {
	img := make([]map[string]string, 1+rng.Intn(4))
	for ti := range img {
		img[ti] = map[string]string{}
	}
	for n := 50 + rng.Intn(100); n > 0; n-- {
		k := make([]byte, 1+rng.Intn(30))
		v := make([]byte, rng.Intn(40))
		rng.Read(k)
		rng.Read(v)
		img[rng.Intn(len(img))][string(k)] = string(v)
	}
	return img
}

// TestPartitionedCheckpointRoundTrip: any database content survives a
// checkpoint round trip exactly — 500 keys spread over every partition,
// then random images.
func TestPartitionedCheckpointRoundTrip(t *testing.T) {
	spread := map[string]string{}
	for i := 0; i < 500; i++ {
		spread[string(binKey(i))] = fmt.Sprintf("v%d", i)
	}
	images := map[string][]map[string]string{"spread": {spread}}
	for seed := int64(1); seed <= 8; seed++ {
		images[fmt.Sprintf("random-%d", seed)] = randomImage(rand.New(rand.NewSource(seed)))
	}
	for name, img := range images {
		t.Run(name, func(t *testing.T) {
			var names []string
			total := 0
			for ti := range img {
				names = append(names, fmt.Sprintf("t%d", ti))
				total += 1 + len(img[ti]) // its catalog row and its rows
			}
			s, _ := catalogStore(t, manualOpts(), names...)
			defer s.Close()
			for ti, name := range names {
				tbl := s.Table(name)
				for k, v := range img[ti] {
					if err := s.Worker(0).Run(func(tx *core.Tx) error { return tx.Insert(tbl, []byte(k), []byte(v)) }); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 10; i++ {
				s.AdvanceEpoch()
			}
			dir := t.TempDir()
			res, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 4)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows != total || res.Partitions != 4 || res.Epoch == 0 {
				t.Fatalf("checkpoint %+v, want %d rows in 4 partitions at a nonzero epoch", res, total)
			}
			for k := 0; k < 4; k++ {
				if _, err := os.Stat(filepath.Join(res.Path, fmt.Sprintf("part.%d", k))); err != nil {
					t.Fatalf("part %d: %v", k, err)
				}
			}

			s2, res2, err := recoverDir(t, dir, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if res2.CheckpointEpoch != res.Epoch || res2.CheckpointRows != total {
				t.Fatalf("loaded ce=%d rows=%d, want ce=%d rows=%d", res2.CheckpointEpoch, res2.CheckpointRows, res.Epoch, total)
			}
			for ti, name := range names {
				if got := dump(t, s2, s2.Table(name)); !maps.Equal(got, img[ti]) {
					t.Fatalf("table %d: loaded %d rows that differ from the %d checkpointed", ti, len(got), len(img[ti]))
				}
			}
		})
	}
}

func TestCheckpointNoSnapshotEpochYet(t *testing.T) {
	s, _ := catalogStore(t, manualOpts(), "t") // E stays at 1; SE stays 0
	if _, err := WriteCheckpoint(nil, s, s.Maintenance(), t.TempDir(), 2); err == nil {
		t.Fatal("checkpoint at snapshot epoch 0 succeeded")
	}
}

// TestDefaultPartitions: asked for no partitions, WriteCheckpoint writes
// DefaultPartitions (4) part files; asked for more than maxParts, it
// writes maxParts.
func TestDefaultPartitions(t *testing.T) {
	s, _ := ckptStore(t, 500)
	for _, c := range []struct{ ask, want int }{{0, 4}, {-1, 4}, {maxParts + 1, maxParts}} {
		res, err := WriteCheckpoint(nil, s, s.Maintenance(), t.TempDir(), c.ask)
		if err != nil {
			t.Fatal(err)
		}
		parts, _ := filepath.Glob(filepath.Join(res.Path, "part.*"))
		if res.Partitions != c.want || len(parts) != c.want {
			t.Errorf("asked for %d parts: result says %d, %d part files; want %d", c.ask, res.Partitions, len(parts), c.want)
		}
	}
}

// TestCheckpointNeedsTheCatalog: the schema section is read from the
// store's table CatalogTableID, so a store whose table 0 is not the
// catalog — or that has no table — is refused, naming what it holds, and
// leaves no checkpoint behind.
func TestCheckpointNeedsTheCatalog(t *testing.T) {
	for _, c := range []struct {
		tables []string
		want   []string
	}{
		{[]string{"t", "u"}, []string{"table id 0", `"t"`, `"__catalog"`}},
		{nil, []string{"no table id 0", `"__catalog"`}},
	} {
		s := core.NewStore(manualOpts())
		for _, name := range c.tables {
			s.CreateTable(name)
		}
		for i := 0; i < 10; i++ {
			s.AdvanceEpoch()
		}
		dir := t.TempDir()
		_, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 2)
		if err == nil {
			t.Fatalf("tables %q: checkpoint without the catalog succeeded", c.tables)
		}
		for _, want := range c.want {
			if !contains(err.Error(), want) {
				t.Errorf("tables %q: error %q does not mention %s", c.tables, err, want)
			}
		}
		if found, _ := findCheckpoints(vfs.OS, dir); len(found) != 0 {
			t.Errorf("tables %q: the refused checkpoint left %v", c.tables, found)
		}
	}
}

// TestRecoverNeedsTheSchema: Recover has one source of schema, its
// Options.Schema, and refuses to run without it.
func TestRecoverNeedsTheSchema(t *testing.T) {
	s, _ := catalogStore(t, manualOpts())
	if _, err := Recover(s, t.TempDir(), Options{Workers: 2}); err == nil || !contains(err.Error(), "Schema") {
		t.Fatalf("Recover without Options.Schema: err %v, want one naming Schema", err)
	}
}

// TestTornCheckpointFallsBack is the crash-mid-checkpoint story: a newer
// set with only a subset of its part files (and no manifest) must be
// ignored in favor of the previous complete set.
func TestTornCheckpointFallsBack(t *testing.T) {
	const n = 200
	s, tbl := ckptStore(t, n)
	dir := t.TempDir()
	first, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 4)
	if err != nil {
		t.Fatal(err)
	}

	// More data, newer snapshot, newer checkpoint…
	w := s.Worker(0)
	for i := n; i < n+100; i++ {
		i := i
		if err := w.Run(func(tx *core.Tx) error {
			return tx.Insert(tbl, binKey(i), []byte("late"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		s.AdvanceEpoch()
	}
	second, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if second.Epoch <= first.Epoch {
		t.Fatalf("second checkpoint epoch %d not beyond first %d", second.Epoch, first.Epoch)
	}

	// …then tear it: kill the manifest and a part, as if the writer died
	// after a subset of parts hit disk.
	if err := os.Remove(filepath.Join(second.Path, manifestName)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(second.Path, "part.2")); err != nil {
		t.Fatal(err)
	}

	ce, rows, err := loadCheckpoint(t, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ce != first.Epoch {
		t.Fatalf("loaded ce=%d, want fallback to %d", ce, first.Epoch)
	}
	if rows != n+1 {
		t.Fatalf("fallback loaded %d rows, want %d and the catalog's", rows, n)
	}

	// A corrupt part (bad CRC) in an otherwise complete set also falls back.
	part := filepath.Join(second.Path, "part.0")
	data, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	os.WriteFile(part, data, 0o644)
	if ce, _, err := loadCheckpoint(t, dir, 4); err != nil || ce != first.Epoch {
		t.Fatalf("corrupt-part fallback: ce=%d err=%v", ce, err)
	}
}

// TestManifestTableListIsReadPast: a manifest as earlier writers made it
// carries a table list (id and name per table) beside its schema section.
// The list is read past and not used, so such a set recovers exactly the
// rows it would without one. Two sets: testdata/spm2-table-list, a
// directory silo.Open filled and checkpointed before the writer left the
// list empty (tables accounts and orders, 40 rows each), and this writer's
// own set with a list spliced in that names tables the store never had.
func TestManifestTableListIsReadPast(t *testing.T) {
	t.Run("written-with-the-list", func(t *testing.T) {
		dir := filepath.Join("testdata", "spm2-table-list")
		data, err := os.ReadFile(filepath.Join(dir, "checkpoint.25", manifestName))
		if err != nil {
			t.Fatal(err)
		}
		if n := binary.LittleEndian.Uint32(data[16:]); n != 3 {
			t.Fatalf("the manifest lists %d tables, want the 3 it was written with", n)
		}
		s, res, err := recoverDir(t, dir, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.CheckpointEpoch != 25 || res.CheckpointRows != 82 {
			t.Errorf("loaded checkpoint %d with %d rows, want 25 with 82", res.CheckpointEpoch, res.CheckpointRows)
		}
		accounts, orders := map[string]string{}, map[string]string{}
		for i := 0; i < 40; i++ {
			accounts[fmt.Sprintf("acct-%03d", i)] = fmt.Sprintf("balance-%d", 100*i)
			orders[fmt.Sprintf("order-%03d", i)] = fmt.Sprintf("acct-%03d", 39-i)
		}
		if got := dump(t, s, s.Table("accounts")); !maps.Equal(got, accounts) {
			t.Errorf("accounts = %v, want %v", got, accounts)
		}
		if got := dump(t, s, s.Table("orders")); !maps.Equal(got, orders) {
			t.Errorf("orders = %v, want %v", got, orders)
		}
	})
	t.Run("list-spliced-in", func(t *testing.T) {
		s, _ := ckptStore(t, 200)
		dir := t.TempDir()
		ck, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := dump(t, s, s.Table("t"))
		path := filepath.Join(ck.Path, manifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, withTableList(data, []string{"__catalog", "renamed", "never-created"}), 0o644); err != nil {
			t.Fatal(err)
		}
		s2, res, err := recoverDir(t, dir, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.CheckpointEpoch != ck.Epoch || res.CheckpointRows != ck.Rows {
			t.Errorf("loaded checkpoint %d with %d rows, want %d with %d", res.CheckpointEpoch, res.CheckpointRows, ck.Epoch, ck.Rows)
		}
		if got := dump(t, s2, s2.Table("t")); !maps.Equal(got, want) {
			t.Errorf("recovered %d rows that differ from the %d checkpointed", len(got), len(want))
		}
	})
}

func TestPruneCheckpoints(t *testing.T) {
	s, tbl := ckptStore(t, 20)
	dir := t.TempDir()
	var epochs []uint64
	for round := 0; round < 3; round++ {
		res, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, res.Epoch)
		w := s.Worker(0)
		if err := w.Run(func(tx *core.Tx) error {
			return tx.Put(tbl, binKey(0), []byte(fmt.Sprintf("r%d", round)))
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			s.AdvanceEpoch()
		}
	}
	removed, err := PruneCheckpoints(nil, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %v, want the 2 older sets", removed)
	}
	found, _ := findCheckpoints(vfs.OS, dir)
	if len(found) != 1 || found[0].epoch != epochs[2] {
		t.Fatalf("left %+v, want only epoch %d", found, epochs[2])
	}
}

// TestStrayEntriesAreNotCheckpoints: only a directory with a valid manifest
// is a checkpoint, whatever else is called checkpoint.<N>. A stray entry
// with a huge N beside one real set must not be what recovery loads, what
// pruning keeps in the real set's place, or what the daemon resumes from.
func TestStrayEntriesAreNotCheckpoints(t *testing.T) {
	for _, c := range []struct {
		name  string
		plant func(path string) error
		stray string
	}{
		{"regular file", func(p string) error { return os.WriteFile(p, []byte("x"), 0o644) }, "checkpoint.999999999"},
		{"temporary file", func(p string) error { return os.WriteFile(p, []byte("x"), 0o644) }, "checkpoint.tmp123"},
		{"directory without a manifest", func(p string) error { return os.Mkdir(p, 0o755) }, "checkpoint.999999999"},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n = 50
			s, tbl := ckptStore(t, n)
			dir := t.TempDir()
			real, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.plant(filepath.Join(dir, c.stray)); err != nil {
				t.Fatal(err)
			}
			writeSegment(t, dir, 0, 0, appendDurableFrame(nil, 1))

			_, res, err := recoverDir(t, dir, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.CheckpointEpoch != real.Epoch || res.CheckpointRows != n+1 {
				t.Errorf("recovery loaded checkpoint %d with %d rows, want the real set at %d with %d", res.CheckpointEpoch, res.CheckpointRows, real.Epoch, n+1)
			}

			removed, err := PruneCheckpoints(nil, dir, 1)
			if err != nil || len(removed) != 0 {
				t.Errorf("prune removed %v (err %v), want nothing", removed, err)
			}
			if _, err := readManifest(vfs.OS, filepath.Join(real.Path, manifestName)); err != nil {
				t.Fatalf("the real set did not survive pruning: %v", err)
			}

			if err := s.Worker(0).Run(func(tx *core.Tx) error { return tx.Put(tbl, binKey(0), []byte("later")) }); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				s.AdvanceEpoch()
			}
			d := NewDaemon(s, attach(t, s, dir), DaemonOptions{Dir: dir, Interval: time.Hour, Partitions: 2})
			if err := d.RunOnce(); err != nil {
				t.Fatal(err)
			}
			if st := d.Stats(); st.Checkpoints != 1 || st.Skipped != 0 || st.LastEpoch <= real.Epoch {
				t.Errorf("daemon beside the stray entry: %+v, want one checkpoint beyond epoch %d", st, real.Epoch)
			}
		})
	}
}

// TestAliasNamesAreIgnored: a file or directory whose name parses to a
// real segment's or checkpoint's numbers but is not that name spelled the
// one way the writers spell it (log.01, log.+1, log.1.0, log.1.01,
// log.0.07, checkpoint.0<CE>) is foreign. Planted beside a real image, the
// aliases change nothing: not what recovery returns, not what TruncateLogs
// or PruneCheckpoints remove, and not the segment a reopened logger
// resumes.
func TestAliasNamesAreIgnored(t *testing.T) {
	const n = 50
	s, tbl := ckptStore(t, n)
	src := t.TempDir()
	older, err := WriteCheckpoint(nil, s, s.Maintenance(), src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Worker(0).Run(func(tx *core.Tx) error { return tx.Put(tbl, binKey(0), []byte("later")) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.AdvanceEpoch()
	}
	newer, err := WriteCheckpoint(nil, s, s.Maintenance(), src, 2)
	if err != nil {
		t.Fatal(err)
	}
	ce := newer.Epoch
	logged := func(epoch uint64, key string) []byte {
		return appendBufferFrame(nil, []logTxn{{tidAt(epoch, 1), []wal.Entry{put(1, []byte(key), []byte("v"))}}}, 'B')
	}
	// Logger 0 rotated twice: two closed segments below CE and an open
	// one above it. Logger 1 never rotated.
	writeSegment(t, src, 0, 0, appendDurableFrame(logged(1, "a"), 1))
	writeSegment(t, src, 0, 1, appendDurableFrame(logged(2, "b"), 2))
	writeSegment(t, src, 0, 2, appendDurableFrame(logged(ce+1, "c"), ce+1))
	writeSegment(t, src, 1, 0, appendDurableFrame(logged(3, "d"), ce+1))

	// Every alias holds a transaction recovery would apply if it read it.
	stray := appendDurableFrame(logged(ce+1, "alias"), ce+1)
	logAliases := []string{"log.01", "log.+1", "log.1.0", "log.1.01", "log.0.07"}
	ckptAlias := fmt.Sprintf("checkpoint.0%d", ce)

	image := func(aliases bool) string {
		dir := filepath.Join(t.TempDir(), "img")
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		if aliases {
			for _, name := range logAliases {
				if err := os.WriteFile(filepath.Join(dir, name), stray, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.CopyFS(filepath.Join(dir, ckptAlias), os.DirFS(newer.Path)); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	names := func(paths []string) (out []string) {
		for _, p := range paths {
			out = append(out, filepath.Base(p))
		}
		return out
	}
	listed := func(dir string) []string {
		infos, err := wal.ListLogFiles(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, fi := range infos {
			paths = append(paths, fi.Path)
		}
		return names(paths)
	}
	entries := func(dir string) []string {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, de := range des {
			out = append(out, de.Name())
		}
		return out
	}
	plain, aliased := image(false), image(true)

	if got, want := listed(aliased), listed(plain); !slices.Equal(got, want) {
		t.Errorf("ListLogFiles with aliases = %v, want %v", got, want)
	}

	type outcome struct {
		ce, d                        uint64
		applied, skipped, rows, segs int
		state                        map[string]string
	}
	recoverDir := func(dir string) outcome {
		s2, res, err := recoverDir(t, dir, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res.CheckpointEpoch, res.DurableEpoch, res.TxnsApplied, res.TxnsSkipped,
			res.CheckpointRows, res.LogFiles, dump(t, s2, s2.Table("t"))}
	}
	want := recoverDir(plain)
	if want.ce != ce || want.d != ce+1 || want.applied != 1 {
		t.Fatalf("recovery of the plain image = CE %d, D %d, %d applied; want CE %d, D %d, 1 applied", want.ce, want.d, want.applied, ce, ce+1)
	}
	if got := recoverDir(aliased); !reflect.DeepEqual(got, want) {
		t.Errorf("recovery with aliases = %+v, want %+v", got, want)
	}

	// A reopened logger appends to its newest real segment: opening the
	// manager creates no file.
	for _, dir := range []string{plain, aliased} {
		before := entries(dir)
		s3, _ := catalogStore(t, manualOpts())
		m, err := wal.Attach(s3, wal.Config{Dir: dir, Loggers: 2})
		if err != nil {
			t.Fatal(err)
		}
		m.Stop()
		if after := entries(dir); !slices.Equal(after, before) {
			t.Errorf("reopening the loggers over %v left %v", before, after)
		}
	}

	for _, c := range []struct {
		what string
		run  func(dir string) ([]string, error)
	}{
		{"TruncateLogs", func(dir string) ([]string, error) { return wal.TruncateLogs(dir, ce) }},
		{"PruneCheckpoints", func(dir string) ([]string, error) { return PruneCheckpoints(nil, dir, 1) }},
	} {
		wantRemoved, err := c.run(plain)
		if err != nil {
			t.Fatal(err)
		}
		gotRemoved, err := c.run(aliased)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := names(gotRemoved), names(wantRemoved); !slices.Equal(g, w) || len(w) == 0 {
			t.Errorf("%s with aliases removed %v, want %v (not empty)", c.what, g, w)
		}
	}
	if _, err := os.Stat(filepath.Join(aliased, filepath.Base(older.Path))); err == nil {
		t.Error("the older checkpoint survived pruning")
	}
	for _, name := range append(logAliases, ckptAlias) {
		if _, err := os.Stat(filepath.Join(aliased, name)); err != nil {
			t.Errorf("alias %s: %v", name, err)
		}
	}
}

// failSyncDirFS is the real filesystem with directory syncs that fail
// where the test says so.
type failSyncDirFS struct {
	vfs.FS
	fail func(dir string) bool
}

var errSyncDir = errors.New("injected directory sync failure")

func (f failSyncDirFS) SyncDir(dir string) error {
	if f.fail(dir) {
		return errSyncDir
	}
	return f.FS.SyncDir(dir)
}

// TestDaemonCountsFailedTicks: a tick whose checkpoint fails shows in
// silo_ckpt_failed_total, beside the error DaemonStats.LastErr keeps, and
// not as a completed checkpoint.
func TestDaemonCountsFailedTicks(t *testing.T) {
	s, _ := ckptStore(t, 50)
	dir := t.TempDir()
	fs := failSyncDirFS{FS: vfs.OS, fail: func(string) bool { return true }}
	d := NewDaemon(s, attach(t, s, dir), DaemonOptions{Dir: dir, Interval: time.Hour, Partitions: 2, FS: fs})
	if err := d.RunOnce(); !errors.Is(err, errSyncDir) {
		t.Fatalf("RunOnce: %v, want the directory sync failure", err)
	}
	var snap obs.Snapshot
	d.CollectObs(&snap)
	if m := snap.Get("silo_ckpt_failed_total", ""); m == nil || m.Value != 1 {
		t.Fatalf("silo_ckpt_failed_total = %+v after one failed tick, want 1", m)
	}
	if got := snap.Value("silo_ckpt_completed_total", ""); got != 0 {
		t.Fatalf("silo_ckpt_completed_total = %d after a failed tick, want 0", got)
	}
}

// TestCheckpointFailsWhenDirSyncFails: a checkpoint set whose directory, or
// whose entry in the durability directory, was not made durable is not a
// checkpoint the log may be truncated against. Both syncs are part of the
// commit point: WriteCheckpoint fails, the daemon tick fails and moves
// nothing, and a retry at the same epoch — which finds the set complete —
// still has to get the syncs through.
func TestCheckpointFailsWhenDirSyncFails(t *testing.T) {
	for _, where := range []string{"the set's directory", "the durability directory"} {
		t.Run(where, func(t *testing.T) {
			s, _ := ckptStore(t, 50)
			dir := t.TempDir()
			// A closed segment every checkpoint covers, and the one the
			// manager has open.
			covered := filepath.Join(dir, wal.SegmentName(0, 0))
			writeSegment(t, dir, 0, 0, appendDurableFrame(appendBufferFrame(nil,
				[]logTxn{{tid: tidAt(1, 1), entries: []wal.Entry{put(1, binKey(0), []byte("v"))}}}, 'B'), 1))
			writeSegment(t, dir, 0, 1, appendDurableFrame(nil, 1))
			m, err := wal.Attach(s, wal.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Stop()

			failing := true
			fs := failSyncDirFS{FS: vfs.OS, fail: func(d string) bool {
				return failing && (d == dir) == (where == "the durability directory")
			}}
			d := NewDaemon(s, m, DaemonOptions{Dir: dir, Interval: time.Hour, Partitions: 2, FS: fs})
			if _, err := WriteCheckpoint(fs, s, s.Maintenance(), dir, 2); !errors.Is(err, errSyncDir) {
				t.Fatalf("WriteCheckpoint: %v, want the directory sync failure", err)
			}
			for range 2 { // each tick finds the set already complete
				if err := d.RunOnce(); !errors.Is(err, errSyncDir) {
					t.Fatalf("RunOnce: %v, want the directory sync failure", err)
				}
				if st := d.Stats(); st.Checkpoints != 0 || st.TruncatedSegments != 0 || st.LastEpoch != 0 || !errors.Is(st.LastErr, errSyncDir) {
					t.Fatalf("failed tick moved the daemon: %+v", st)
				}
				if _, err := os.Stat(covered); err != nil {
					t.Fatalf("log truncated against a checkpoint that was never committed: %v", err)
				}
			}

			failing = false
			if err := d.RunOnce(); err != nil {
				t.Fatal(err)
			}
			if st := d.Stats(); st.Checkpoints != 1 || st.TruncatedSegments != 1 || st.LastErr != nil {
				t.Fatalf("tick after the disk recovered: %+v, want one checkpoint and one truncated segment", st)
			}
		})
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// attach attaches loggers over dir to s, unstarted, as a daemon's manager;
// they stop when the test ends.
func attach(t *testing.T, s *core.Store, dir string) *wal.Manager {
	t.Helper()
	m, err := wal.Attach(s, wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

// TestPartBoundsCoverDisjoint checks that the ranges partRange cuts from a
// table's split keys tile the key space: every key — the split keys, and
// the keys just above them, included — falls in exactly one part, for
// tables of no leaf, one leaf and many, and for more parts than leaves.
func TestPartBoundsCoverDisjoint(t *testing.T) {
	for _, rows := range []int{0, 10, 100, 3000} {
		_, tbl := ckptStore(t, rows)
		for _, n := range []int{1, 2, 3, 4, 7, 16, 64} {
			splits := tbl.Tree.SplitKeys(n)
			keys := [][]byte{{0}, {0, 0}, {1}, {0x3f}, {0x3f, 0xff}, {0x40}, {0x80, 1, 2}, {0xff}, {0xff, 0xff, 0xff}}
			for _, s := range splits {
				keys = append(keys, s, append(s[:len(s):len(s)], 0))
			}
			for _, key := range keys {
				in := 0
				for k := 0; k < n; k++ {
					lo, hi, ok := partRange(splits, k)
					if ok && bytes.Compare(key, lo) >= 0 && (hi == nil || bytes.Compare(key, hi) < 0) {
						in++
					}
				}
				if in != 1 {
					t.Fatalf("%d rows, n=%d: key %x in %d partitions", rows, n, key, in)
				}
			}
		}
	}
}

// drainEpochs lets the time-based tests run with real epochs instead of
// manual ones.
func fastOpts(workers int) core.Options {
	o := core.DefaultOptions(workers)
	o.EpochInterval = time.Millisecond
	o.SnapshotK = 2
	return o
}
