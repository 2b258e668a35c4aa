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

// ckptStore builds a store with manual epochs, loads n keys across the key
// space, and pushes epochs far enough that a snapshot covers them.
func ckptStore(t *testing.T, n int) (*core.Store, *core.Table) {
	t.Helper()
	opts := core.DefaultOptions(2)
	opts.ManualEpochs = true
	opts.SnapshotK = 2
	s := core.NewStore(opts)
	t.Cleanup(s.Close)
	tbl := s.CreateTable("t")
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
func loadCheckpoint(s *core.Store, dir string, workers int) (ce uint64, rows int, err error) {
	res, err := Recover(s, dir, Options{Workers: workers})
	return res.CheckpointEpoch, res.CheckpointRows, err
}

// dump captures a table's logical contents.
func dump(t *testing.T, s *core.Store, tbl *core.Table) map[string]string {
	t.Helper()
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
				total += len(img[ti])
			}
			s := manualStore(t, names...)
			for ti, tbl := range s.Tables() {
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
			res, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 4, nil)
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

			s2 := manualStore(t, names...)
			ce, rows, err := loadCheckpoint(s2, dir, 4)
			if err != nil {
				t.Fatal(err)
			}
			if ce != res.Epoch || rows != total {
				t.Fatalf("loaded ce=%d rows=%d, want ce=%d rows=%d", ce, rows, res.Epoch, total)
			}
			for ti, tbl := range s2.Tables() {
				if got := dump(t, s2, tbl); !maps.Equal(got, img[ti]) {
					t.Fatalf("table %d: loaded %d rows that differ from the %d checkpointed", ti, len(got), len(img[ti]))
				}
			}
		})
	}
}

func TestCheckpointNoSnapshotEpochYet(t *testing.T) {
	opts := core.DefaultOptions(1)
	opts.ManualEpochs = true // E stays at 1; SE stays 0
	s := core.NewStore(opts)
	defer s.Close()
	s.CreateTable("t")
	if _, err := WriteCheckpoint(nil, s, s.Maintenance(), t.TempDir(), 2, nil); err == nil {
		t.Fatal("checkpoint at snapshot epoch 0 succeeded")
	}
}

// TestTornCheckpointFallsBack is the crash-mid-checkpoint story: a newer
// set with only a subset of its part files (and no manifest) must be
// ignored in favor of the previous complete set.
func TestTornCheckpointFallsBack(t *testing.T) {
	const n = 200
	s, tbl := ckptStore(t, n)
	dir := t.TempDir()
	first, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 4, nil)
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
	second, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 4, nil)
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

	s2 := core.NewStore(core.DefaultOptions(1))
	defer s2.Close()
	s2.CreateTable("t")
	ce, rows, err := loadCheckpoint(s2, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ce != first.Epoch {
		t.Fatalf("loaded ce=%d, want fallback to %d", ce, first.Epoch)
	}
	if rows != n {
		t.Fatalf("fallback loaded %d rows, want %d", rows, n)
	}

	// A corrupt part (bad CRC) in an otherwise complete set also falls back.
	part := filepath.Join(second.Path, "part.0")
	data, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	os.WriteFile(part, data, 0o644)
	s3 := core.NewStore(core.DefaultOptions(1))
	defer s3.Close()
	s3.CreateTable("t")
	if ce, _, err := loadCheckpoint(s3, dir, 4); err != nil || ce != first.Epoch {
		t.Fatalf("corrupt-part fallback: ce=%d err=%v", ce, err)
	}
}

func TestCheckpointSchemaMismatch(t *testing.T) {
	s, _ := ckptStore(t, 10)
	dir := t.TempDir()
	if _, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 2, nil); err != nil {
		t.Fatal(err)
	}

	// Same id, different name: hard error naming both.
	s2 := core.NewStore(core.DefaultOptions(1))
	defer s2.Close()
	s2.CreateTable("wrong")
	_, _, err := loadCheckpoint(s2, dir, 2)
	if err == nil {
		t.Fatal("schema mismatch not detected")
	}
	for _, want := range []string{`"t"`, `"wrong"`, "table id 0"} {
		if !contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}

	// Missing table entirely: hard error, not silent fallback.
	s3 := core.NewStore(core.DefaultOptions(1))
	defer s3.Close()
	if _, _, err := loadCheckpoint(s3, dir, 2); err == nil {
		t.Fatal("missing table not detected")
	}
}

func TestPruneCheckpoints(t *testing.T) {
	s, tbl := ckptStore(t, 20)
	dir := t.TempDir()
	var epochs []uint64
	for round := 0; round < 3; round++ {
		res, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 2, nil)
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
			real, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.plant(filepath.Join(dir, c.stray)); err != nil {
				t.Fatal(err)
			}
			writeSegment(t, dir, 0, 0, appendDurableFrame(nil, 1))

			res, err := Recover(manualStore(t, "t"), dir, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.CheckpointEpoch != real.Epoch || res.CheckpointRows != n {
				t.Errorf("recovery loaded checkpoint %d with %d rows, want the real set at %d with %d", res.CheckpointEpoch, res.CheckpointRows, real.Epoch, n)
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
			d := NewDaemon(s, nil, DaemonOptions{Dir: dir, Interval: time.Hour, Partitions: 2})
			if err := d.RunOnce(); err != nil {
				t.Fatal(err)
			}
			if st := d.Stats(); st.Checkpoints != 1 || st.Skipped != 0 || st.LastEpoch <= real.Epoch {
				t.Errorf("daemon beside the stray entry: %+v, want one checkpoint beyond epoch %d", st, real.Epoch)
			}
		})
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
	d := NewDaemon(s, nil, DaemonOptions{Dir: dir, Interval: time.Hour, Partitions: 2, FS: fs})
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
				[]logTxn{{tid: tidAt(1, 1), entries: []wal.Entry{put(0, binKey(0), []byte("v"))}}}, 'B'), 1))
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
			if _, err := WriteCheckpoint(fs, s, s.Maintenance(), dir, 2, nil); !errors.Is(err, errSyncDir) {
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
