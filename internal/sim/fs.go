// Package sim is the deterministic simulation and fault-injection harness
// for the durability subsystem. It substitutes the two sources of
// nondeterminism the subsystem has — the filesystem and the clock — with
// in-memory implementations a seed fully controls, so whole
// commit/checkpoint/DDL/crash/recover histories run single-threaded and any
// failure replays byte-identically from its seed.
//
// The fault model of FS follows what real disks do across a crash:
//
//   - Written bytes that were never fsynced may survive partially (a torn
//     tail at an arbitrary byte) or not at all.
//   - A file's own fsync does not make its directory entry durable; without
//     a parent SyncDir the whole file may vanish — the "reordered segment
//     visibility" failure mode.
//   - Power loss strikes at a byte-granular instant in the write stream
//     (CutPowerAfter), possibly mid-frame. The disk's state freezes there;
//     the oblivious process keeps running and keeps getting success from
//     every later write and fsync, but none of it — appends, creates,
//     deletes, truncations — ever reaches the frozen image. This is what
//     makes post-cut acknowledgements phantom, exactly like a real
//     machine's last moments.
//
// Crash derives the surviving disk image from the frozen durability
// bookkeeping plus a seeded RNG, and every choice it makes is a function
// of that RNG — replaying a seed replays the same surviving bytes.
package sim

import (
	"fmt"
	"hash/crc64"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"silo/internal/vfs"
)

// FS is a deterministic in-memory filesystem with crash fault injection.
// It implements vfs.FS. Methods are safe for concurrent use (checkpoint
// partition writers and recovery parsers run on several goroutines), but
// all nondeterministic choices happen in Crash, under the caller's RNG.
type FS struct {
	mu    sync.Mutex
	files map[string]*simFile
	dirs  map[string]bool

	// armed power loss: once cutAfter more written bytes pass through, the
	// disk state freezes into snap/snapDirs. Everything afterwards happens
	// only in the live (page-cache) view.
	armed    bool
	cutAfter int64
	cutDone  bool
	snap     map[string]*simFile
	snapDirs map[string]bool
}

type simFile struct {
	data []byte
	// durable is the length of the prefix guaranteed to survive a crash
	// (advanced by Sync while power is on).
	durable int
	// linkDurable marks the directory entry crash-safe (set by a parent
	// SyncDir while power is on). A file without it may vanish entirely on
	// crash, fsynced data and all.
	linkDurable bool
}

// NewFS returns an empty filesystem.
func NewFS() *FS {
	return &FS{files: map[string]*simFile{}, dirs: map[string]bool{}}
}

// CutPowerAfter arms the power loss: after n more bytes of write traffic
// (cumulative, across all files), the disk state freezes — possibly in the
// middle of a single Write call, leaving a torn frame. The process keeps
// running and keeps being told its writes and fsyncs succeeded, but the
// next Crash is derived from the frozen instant; nothing acknowledged
// after it survives.
func (f *FS) CutPowerAfter(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cutDone || f.armed {
		return
	}
	f.armed = true
	f.cutAfter = n
	if n <= 0 {
		f.freezeLocked()
	}
}

// CutPower freezes the disk state immediately (CutPowerAfter(0)).
func (f *FS) CutPower() { f.CutPowerAfter(0) }

// PowerCut reports whether the armed power loss has struck.
func (f *FS) PowerCut() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cutDone
}

// freezeLocked snapshots the current state as the instant of power loss.
func (f *FS) freezeLocked() {
	f.cutDone = true
	f.snap = make(map[string]*simFile, len(f.files))
	for p, sf := range f.files {
		f.snap[p] = &simFile{
			data:        append([]byte(nil), sf.data...),
			durable:     sf.durable,
			linkDurable: sf.linkDurable,
		}
	}
	f.snapDirs = make(map[string]bool, len(f.dirs))
	for d := range f.dirs {
		f.snapDirs[d] = true
	}
}

// Crash returns the disk image the power loss left behind: working from
// the frozen instant (or the current state, if power was never cut), files
// whose directory entries were never synced survive only by rng's whim,
// and each surviving file keeps its durable prefix plus a seeded, possibly
// torn, portion of its unsynced tail. The receiver is left untouched; the
// returned filesystem has power restored.
func (f *FS) Crash(rng *rand.Rand) *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	files, dirs := f.files, f.dirs
	if f.cutDone {
		files, dirs = f.snap, f.snapDirs
	}
	out := NewFS()
	for d := range dirs {
		out.dirs[d] = true
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		sf := files[path]
		if !sf.linkDurable && rng.Intn(2) == 0 {
			continue // directory entry never made it to disk
		}
		keep := sf.durable
		if tail := len(sf.data) - sf.durable; tail > 0 {
			keep += rng.Intn(tail + 1) // torn unsynced tail
		}
		out.files[path] = &simFile{
			data:        append([]byte(nil), sf.data[:keep]...),
			durable:     keep,
			linkDurable: true,
		}
	}
	return out
}

// Clone returns a deep copy with power restored — the image a clean
// shutdown leaves behind.
func (f *FS) Clone() *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := NewFS()
	for d := range f.dirs {
		out.dirs[d] = true
	}
	for p, sf := range f.files {
		out.files[p] = &simFile{
			data:        append([]byte(nil), sf.data...),
			durable:     sf.durable,
			linkDurable: sf.linkDurable,
		}
	}
	return out
}

// TruncateTo chops path's content (and durability) to n bytes. Directed
// tests use it to build precise torn-file images — a MANIFEST cut inside
// its footer, a log cut between a DDL create record and its ready record —
// that seeded crashes would only reach occasionally.
func (f *FS) TruncateTo(path string, n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	sf, ok := f.files[path]
	if !ok {
		return &os.PathError{Op: "truncate", Path: path, Err: os.ErrNotExist}
	}
	if n < 0 || n > len(sf.data) {
		return fmt.Errorf("sim: truncate %s to %d outside [0, %d]", path, n, len(sf.data))
	}
	sf.data = sf.data[:n]
	if sf.durable > n {
		sf.durable = n
	}
	return nil
}

// Size returns path's current (buffered) length.
func (f *FS) Size(path string) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sf, ok := f.files[path]
	if !ok {
		return 0, &os.PathError{Op: "size", Path: path, Err: os.ErrNotExist}
	}
	return len(sf.data), nil
}

// Hash fingerprints the entire filesystem — paths, contents, and
// durability state — for byte-identical replay checks.
func (f *FS) Hash() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	dirs := make([]string, 0, len(f.dirs))
	for d := range f.dirs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		fmt.Fprintf(h, "dir %s\n", d)
	}
	for _, p := range f.sortedFilesLocked() {
		sf := f.files[p]
		fmt.Fprintf(h, "file %s durable=%d link=%v\n", p, sf.durable, sf.linkDurable)
		h.Write(sf.data)
	}
	return h.Sum64()
}

func (f *FS) sortedFilesLocked() []string {
	paths := make([]string, 0, len(f.files))
	for p := range f.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// ---- vfs.FS ----

func (f *FS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	clean := filepath.Clean(dir)
	for p := clean; p != "." && p != "/"; p = filepath.Dir(p) {
		f.dirs[p] = true
	}
	return nil
}

func (f *FS) Mkdir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	clean := filepath.Clean(dir)
	if f.dirs[clean] || f.files[clean] != nil {
		return &os.PathError{Op: "mkdir", Path: dir, Err: os.ErrExist}
	}
	f.dirs[clean] = true
	return nil
}

func (f *FS) OpenAppend(path string) (vfs.File, int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sf, ok := f.files[path]
	if !ok {
		sf = &simFile{}
		f.files[path] = sf
	}
	return &simHandle{fs: f, path: path}, int64(len(sf.data)), nil
}

func (f *FS) Create(path string) (vfs.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sf, ok := f.files[path]
	if !ok {
		sf = &simFile{}
		f.files[path] = sf
	}
	// Truncate; the durable prefix of the old content is gone.
	sf.data = nil
	sf.durable = 0
	return &simHandle{fs: f, path: path}, nil
}

// poison is the byte release fills a Map copy with: a caller still reading
// bytes it was handed after releasing them reads this instead of data.
const poison = 0xDB

// Map returns a copy of path's bytes, and a release that overwrites the copy
// with poison, so that a caller which keeps a mapped key or value past
// release corrupts what it kept, as it would fault on a real unmapped file.
func (f *FS) Map(path string) ([]byte, func(), error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sf, ok := f.files[path]
	if !ok {
		return nil, nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	// Reads see the page cache: buffered and durable bytes alike.
	data := append([]byte(nil), sf.data...)
	return data, func() {
		for i := range data {
			data[i] = poison
		}
	}, nil
}

func (f *FS) Stat(path string) (int64, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	clean := filepath.Clean(path)
	if sf, ok := f.files[clean]; ok {
		return int64(len(sf.data)), false, nil
	}
	if f.dirs[clean] {
		return 0, true, nil
	}
	return 0, false, &os.PathError{Op: "stat", Path: path, Err: os.ErrNotExist}
}

func (f *FS) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	clean := filepath.Clean(path)
	if _, ok := f.files[clean]; ok {
		delete(f.files, clean)
		return nil
	}
	if f.dirs[clean] {
		delete(f.dirs, clean)
		return nil
	}
	return &os.PathError{Op: "remove", Path: path, Err: os.ErrNotExist}
}

func (f *FS) RemoveAll(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	clean := filepath.Clean(path)
	prefix := clean + string(filepath.Separator)
	for p := range f.files {
		if p == clean || strings.HasPrefix(p, prefix) {
			delete(f.files, p)
		}
	}
	for d := range f.dirs {
		if d == clean || strings.HasPrefix(d, prefix) {
			delete(f.dirs, d)
		}
	}
	return nil
}

func (f *FS) Glob(pattern string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	match := func(p string) bool {
		ok, err := filepath.Match(pattern, p)
		return err == nil && ok
	}
	for p := range f.files {
		if match(p) {
			out = append(out, p)
		}
	}
	for d := range f.dirs {
		if match(d) {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (f *FS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	clean := filepath.Clean(dir)
	for p, sf := range f.files {
		if filepath.Dir(p) == clean {
			sf.linkDurable = true
		}
	}
	return nil
}

// simHandle is an open append/create handle. Writes go to the buffered
// image; only Sync (with power on) makes them crash-durable.
type simHandle struct {
	fs   *FS
	path string
}

func (h *simHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	sf, ok := h.fs.files[h.path]
	if !ok {
		return 0, &os.PathError{Op: "write", Path: h.path, Err: os.ErrClosed}
	}
	if h.fs.armed && !h.fs.cutDone && int64(len(p)) >= h.fs.cutAfter {
		// The power dies inside this very write: the bytes before the cut
		// join the frozen image's unsynced tail (a torn frame), the rest
		// exist only in the dying machine's memory.
		k := int(h.fs.cutAfter)
		sf.data = append(sf.data, p[:k]...)
		h.fs.freezeLocked()
		sf.data = append(sf.data, p[k:]...)
		return len(p), nil
	}
	if h.fs.armed && !h.fs.cutDone {
		h.fs.cutAfter -= int64(len(p))
	}
	sf.data = append(sf.data, p...)
	return len(p), nil
}

func (h *simHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if sf, ok := h.fs.files[h.path]; ok {
		sf.durable = len(sf.data)
	}
	return nil
}

func (h *simHandle) Close() error { return nil }

// Dump lists every file with its size, durability metadata, and content
// hash — the first thing to diff when two runs of a seed disagree.
func (f *FS) Dump() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	paths := make([]string, 0, len(f.files))
	for p := range f.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, p := range paths {
		sf := f.files[p]
		h := crc64.Checksum(sf.data, crc64.MakeTable(crc64.ECMA))
		fmt.Fprintf(&b, "%s size=%d durable=%d link=%v crc=%016x\n", p, len(sf.data), sf.durable, sf.linkDurable, h)
	}
	return b.String()
}
