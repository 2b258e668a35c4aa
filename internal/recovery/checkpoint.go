// Package recovery owns Silo's parallel durability lifecycle: partitioned
// checkpoints written and loaded by concurrent workers, multicore log
// replay, and a background checkpoint daemon that turns checkpointing and
// log truncation into operational properties (SiloR: on multicore hardware
// both checkpointing and replay must be parallelized or recovery time
// dwarfs runtime performance).
//
// Recover is the only replay: Open, silo-server and silo-recover -replay
// all run it. The sequential reference it is held to — every logged
// transaction materialized, sorted by TID and applied one by one — lives in
// this package's tests (sequentialRecover), and the equivalence tests
// assert identical state. Two properties make the parallelism order-free:
//
//   - Checkpoints are cut from one snapshot epoch CE: every partition
//     writer reads the same consistent image (core.SnapshotScanAt), so the
//     partition files compose into exactly the sequential image.
//
//   - Replay follows the paper's recovery rule: the recovered version of a
//     record is the logged one with the largest TID ≤ D. Which segment,
//     piece or worker saw it first is irrelevant, so the log is checked
//     and decoded in frame ranges cut by bytes, not by file — as wide as
//     the workers however the log is spread over loggers and segments —
//     and only each key's newest version is kept; workers need no
//     coordination beyond the epoch ≤ D filter and the partition of keys
//     among them. Nor does the order rows reach the tree in matter: each
//     table is built once (btree.Tree.Build) from its checkpoint rows
//     merged with the log's winners.
//
// Once the log is walked, every decision replay makes on a key — is it one
// already seen, which span of its table does it land in, where does it
// sort — is made on fixed-size words: an entry travels as a pointer-free
// item that holds its key's first 16 bytes as two big-endian words, its
// length, and the offsets of its key and value in the log. Log bytes are
// read only where two keys tie on both words and both go on past them, and
// to copy a surviving row. A staged checkpoint row is likewise offsets into
// its mapped part. A span's winners are radix-sorted on the bytes of the
// words that vary; its surviving rows are born together, their records one
// slice and their values' buffers carved from shared chunks, so a recovery
// allocates per span and per chunk, not per row; and Build fills a large
// table's leaves on several goroutines.
//
// # Checkpoint layout
//
// There is one checkpoint format. A checkpoint at snapshot epoch CE is the
// directory
//
//	checkpoint.<CE>/
//	    part.0 … part.<N−1>   one disjoint key-range slice of every table
//	    MANIFEST              written and fsynced last
//
// Each table is cut into N key ranges where its own tree's leaves are: the
// writer takes N−1 split keys from the inner nodes' separators
// (btree.Tree.SplitKeys), so every range covers about as many leaves,
// whatever the keys look like — 8-byte big-endian ids and
// warehouse-prefixed TPC-C keys, which all start with zero bytes, included.
// Part k holds range k of every table; a table of fewer than N leaves has
// fewer ranges and leaves the last parts without rows of it. Part files and
// the manifest carry CRC32 footers. Because the manifest is written only
// after every part is durable, a crash mid-checkpoint leaves a directory
// without a manifest, which loading ignores — recovery falls back to the
// previous complete set. Anything else named checkpoint.* (a regular file,
// a temporary) is not a candidate.
//
//	part.<k>:  "SPC1" | u64 CE | u32 part
//	           rows: 'R' | u32 table | u16 klen | key | u64 tid-slot |
//	                 u32 vlen | value
//	           'E' | u32 crc32(everything before the footer)
//
// The rows obey an ordering rule: within a part, a table's rows are one
// contiguous run with strictly ascending keys, and each table's keys go on
// ascending from part to part. A set that breaks it is torn, like one whose
// CRC does not match. The rule is what lets loading skip the search: every
// part is verified and staged as one run per table, in parallel, and
// loading builds nothing. Once the log is replayed, each table's runs are
// merged with the log's winners and btree.Tree.Build lays the result into
// packed leaves, building the inner levels above them and publishing the
// root with one store (see replay). A torn set is never staged, so it
// installs nothing. Part files are mapped (vfs.FS.Map), not read; a part
// is released once Build has copied its keys, and a surviving row's value
// is copied into its record.
//
//	MANIFEST:  "SPM2" | u64 CE | u32 nparts
//	           u32 ntables | ntables × (u32 id | u16 namelen | name)
//	           u64 totalRows
//	           u32 nschema | nschema × (u16 klen | key | u32 vlen | value)
//	           'E' | u32 crc32(everything before the footer)
//
// The schema section is the schema: the rows of the DDL catalog, table
// CatalogTableID, as of CE. Recovery applies them before loading any part,
// which is what lets a checkpointed store reconstruct its full schema —
// tables and index declarations — with zero re-declarations even after the
// pre-checkpoint log segments carrying the original DDL records have been
// truncated, and what lets replay skip the log below CE without looking
// inside it. The table list is always empty: it is kept only so that the
// magic stays SPM2, and a list an older writer left there is read past and
// ignored.
package recovery

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"silo/internal/btree"
	"silo/internal/catalog"
	"silo/internal/core"
	"silo/internal/vfs"
)

const (
	partMagic     = "SPC1"
	manifestMagic = "SPM2"
	manifestName  = "MANIFEST"

	// maxParts caps the partitions of one checkpoint, for the writer and
	// for what a manifest may claim.
	maxParts = 64
)

// DefaultPartitions is the number of part files WriteCheckpoint writes
// when asked for none.
const DefaultPartitions = 4

// errTorn marks an incomplete or corrupt checkpoint set; loading falls
// back to the previous complete set. A set whose schema section the catalog
// refuses, or whose part names a table the schema does not create, is *not*
// torn: that is a hard error, so recovery never skips a set it could read
// for an older one.
var errTorn = errors.New("recovery: torn or corrupt checkpoint")

// CheckpointResult describes a completed partitioned checkpoint.
type CheckpointResult struct {
	// Epoch is the snapshot epoch CE the image is consistent at.
	Epoch uint64
	// Rows is the number of records written across all partitions.
	Rows int
	// Bytes is the total size of the part files plus manifest.
	Bytes int64
	// Path is the checkpoint directory (checkpoint.<CE>).
	Path string
	// Partitions is the number of part files written.
	Partitions int
	// Elapsed is the wall-clock time of the checkpoint.
	Elapsed time.Duration
}

// partRange returns the key range [lo, hi) of part k for a table cut by
// splits (hi nil is +∞); ok is false when the table has no range k.
func partRange(splits [][]byte, k int) (lo, hi []byte, ok bool) {
	if k > len(splits) {
		return nil, nil, false
	}
	lo = []byte{0} // the least key
	if k > 0 {
		lo = splits[k-1]
	}
	if k < len(splits) {
		hi = splits[k]
	}
	return lo, hi, true
}

// WriteCheckpoint takes a transactionally consistent checkpoint of every
// table in the store using parts writer goroutines that each walk a
// disjoint key range of every table at one snapshot epoch, the ranges cut
// where each table's leaves are (see the package doc). The snapshot is pinned
// by a snapshot transaction on w, whose local epoch is refreshed
// periodically so a long checkpoint never stalls the epoch advancer;
// writers on other workers are not blocked (§4.9: snapshot reads never
// abort). The worker must be otherwise idle — the checkpoint daemon uses
// the store's dedicated maintenance worker. parts ≤ 0 means
// DefaultPartitions. The parts are written concurrently on the real
// filesystem and one after another on any other (see below).
//
// The store's table CatalogTableID must be the DDL catalog (catalog.New):
// its rows as of the snapshot epoch are the manifest's schema section,
// which makes the checkpoint self-describing (recovery reconstructs tables
// and index declarations from the manifest before loading a single part).
// A store whose table 0 is anything else is refused, naming the table. A
// nil fs is the real filesystem (the simulation harness passes its
// fault-injecting one).
//
// The checkpoint is complete — and WriteCheckpoint returns nil — only once
// the manifest, the set's directory and the entry for it in dir have all
// been fsynced: callers go on to truncate the log the set covers.
func WriteCheckpoint(fs vfs.FS, s *core.Store, w *core.Worker, dir string, parts int) (CheckpointResult, error) {
	var res CheckpointResult
	start := time.Now()
	cat := s.TableByID(CatalogTableID)
	if cat == nil {
		return res, fmt.Errorf("recovery: the store has no table id %d, so no catalog %q to checkpoint", CatalogTableID, catalog.TableName)
	}
	if cat.Name != catalog.TableName {
		return res, fmt.Errorf("recovery: table id %d is %q, not the catalog %q", CatalogTableID, cat.Name, catalog.TableName)
	}
	fs = vfs.DefaultFS(fs)
	if parts <= 0 {
		parts = DefaultPartitions
	}
	parts = min(parts, maxParts)
	res.Partitions = parts
	if err := fs.MkdirAll(dir); err != nil {
		return res, err
	}

	err := w.RunSnapshot(func(stx *core.SnapTx) error {
		sew := stx.Epoch()
		if sew == 0 {
			return fmt.Errorf("recovery: no snapshot epoch available yet (epoch still warming up)")
		}
		res.Epoch = sew
		// Listed once sew is pinned: a table created from here on commits
		// its catalog row and its rows at epochs above sew, so the parts
		// miss no table the schema section creates.
		tables := s.Tables()
		ckptDir := filepath.Join(dir, checkpointName(sew))
		res.Path = ckptDir
		// commit makes the set reachable after a crash: the entries of its
		// files, then its own entry in dir.
		commit := func() error {
			if err := fs.SyncDir(ckptDir); err != nil {
				return err
			}
			return fs.SyncDir(dir)
		}
		// A complete set at this epoch is kept, never rewritten: the
		// snapshot image at a given CE is deterministic, and destroying
		// the only complete set before its replacement's manifest is
		// durable would leave a crash window with nothing to fall back to
		// (fatal if covered log segments were already truncated). Its
		// directories are synced again: the attempt that wrote it may be
		// the one whose sync failed.
		if m, err := readManifest(fs, filepath.Join(ckptDir, manifestName)); err == nil && m.epoch == sew {
			res.Rows = int(m.rows)
			res.Partitions = m.parts
			return commit()
		}
		// A torn attempt at this epoch (no valid manifest) is replaced.
		if err := fs.RemoveAll(ckptDir); err != nil {
			return err
		}
		if err := fs.Mkdir(ckptDir); err != nil {
			return err
		}

		type partOut struct {
			rows  int
			bytes int64
			err   error
		}
		// The schema section is read under the same pinned snapshot epoch
		// as the part writers, so the manifest's catalog rows describe
		// exactly the schema the parts were cut under.
		var schema []schemaRow
		serr := core.SnapshotScanAt(cat, sew, []byte{0}, nil, func(key, val []byte) bool {
			schema = append(schema, schemaRow{
				key: append([]byte(nil), key...),
				val: append([]byte(nil), val...),
			})
			return true
		})
		if serr != nil {
			return serr
		}

		splits := make([][][]byte, len(tables))
		for i, tbl := range tables {
			splits[i] = tbl.Tree.SplitKeys(parts)
		}
		// Concurrent part writers are a real-disk throughput optimization;
		// on any other filesystem (the deterministic simulation's, notably)
		// the parts are written sequentially so the byte stream reaching
		// the filesystem is a pure function of the store state.
		outs := make([]partOut, parts)
		writeOne := func(k int) {
			rows, n, err := writePart(fs, ckptDir, k, sew, tables, splits)
			outs[k] = partOut{rows, n, err}
		}
		if fs != vfs.OS {
			for k := range outs {
				if writeOne(k); outs[k].err != nil {
					break
				}
			}
		} else {
			done := make(chan struct{})
			var wg sync.WaitGroup
			for k := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					writeOne(k)
				}()
			}
			go func() { wg.Wait(); close(done) }()
			// Keep the pinned slot's local epoch fresh while the writers
			// run: Refresh advances e_w (so E keeps moving) without touching
			// the snapshot epoch that protects the versions being scanned.
			t := time.NewTicker(time.Millisecond)
			for running := true; running; {
				select {
				case <-done:
					running = false
				case <-t.C:
					w.RefreshEpoch()
				}
			}
			t.Stop()
		}
		for k := range outs {
			if outs[k].err != nil {
				return outs[k].err
			}
			res.Rows += outs[k].rows
			res.Bytes += outs[k].bytes
		}
		n, err := writeManifest(fs, ckptDir, sew, parts, uint64(res.Rows), schema)
		if err != nil {
			return err
		}
		res.Bytes += n
		return commit()
	})
	if err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// writePart writes one partition file: range k of every table, cut by that
// table's splits, at snapshot epoch sew, fsynced before return.
func writePart(fs vfs.FS, ckptDir string, k int, sew uint64, tables []*core.Table, splits [][][]byte) (rows int, size int64, err error) {
	f, err := fs.Create(filepath.Join(ckptDir, fmt.Sprintf("part.%d", k)))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()

	crc := crc32.NewIEEE()
	buf := make([]byte, 0, 64<<10)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		crc.Write(buf)
		if _, err := f.Write(buf); err != nil {
			return err
		}
		size += int64(len(buf))
		buf = buf[:0]
		return nil
	}

	buf = append(buf, partMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, sew)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	for i, tbl := range tables {
		lo, hi, ok := partRange(splits[i], k)
		if !ok {
			continue
		}
		var inner error
		serr := core.SnapshotScanAt(tbl, sew, lo, hi, func(key, val []byte) bool {
			buf = append(buf, 'R')
			buf = binary.LittleEndian.AppendUint32(buf, tbl.ID)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
			buf = append(buf, key...)
			// Reserved per-row TID slot, as in the single-file format.
			buf = binary.LittleEndian.AppendUint64(buf, 0)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
			buf = append(buf, val...)
			rows++
			if len(buf) >= 64<<10 {
				if err := flush(); err != nil {
					inner = err
					return false
				}
			}
			return true
		})
		if inner != nil {
			return rows, size, inner
		}
		if serr != nil {
			return rows, size, serr
		}
	}
	if err := flush(); err != nil {
		return rows, size, err
	}
	foot := make([]byte, 0, 5)
	foot = append(foot, 'E')
	foot = binary.LittleEndian.AppendUint32(foot, crc.Sum32())
	if _, err := f.Write(foot); err != nil {
		return rows, size, err
	}
	size += int64(len(foot))
	if err := f.Sync(); err != nil {
		return rows, size, err
	}
	return rows, size, f.Close()
}

// schemaRow is one DDL-catalog row embedded in a manifest's schema
// section.
type schemaRow struct {
	key, val []byte
}

// writeManifest writes and fsyncs the manifest — the commit point of the
// checkpoint. Its table list is empty (see the package doc).
func writeManifest(fs vfs.FS, ckptDir string, sew uint64, parts int, totalRows uint64, schema []schemaRow) (int64, error) {
	buf := make([]byte, 0, 256)
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, sew)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(parts))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // ntables
	buf = binary.LittleEndian.AppendUint64(buf, totalRows)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(schema)))
	for i := range schema {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(schema[i].key)))
		buf = append(buf, schema[i].key...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(schema[i].val)))
		buf = append(buf, schema[i].val...)
	}
	buf = append(buf, 'E')
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[:len(buf)-1]))

	f, err := fs.Create(filepath.Join(ckptDir, manifestName))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Write(buf); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return int64(len(buf)), f.Close()
}

// manifest is the parsed MANIFEST of a partitioned checkpoint.
type manifest struct {
	epoch  uint64
	parts  int
	rows   uint64
	schema []schemaRow // DDL catalog rows at CE
}

func readManifest(fs vfs.FS, path string) (*manifest, error) {
	data, release, err := fs.Map(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errTorn, err)
	}
	defer release() // the schema rows are copied out
	if len(data) < len(manifestMagic)+8+4+4+8+4+5 || string(data[:4]) != manifestMagic {
		return nil, fmt.Errorf("%w: %s: bad manifest header", errTorn, path)
	}
	body, foot := data[:len(data)-5], data[len(data)-5:]
	if foot[0] != 'E' || crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(foot[1:]) {
		return nil, fmt.Errorf("%w: %s: bad manifest footer", errTorn, path)
	}
	m := &manifest{}
	off := 4
	m.epoch = binary.LittleEndian.Uint64(body[off:])
	off += 8
	m.parts = int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if m.parts < 1 || m.parts > maxParts {
		return nil, fmt.Errorf("%w: %s: manifest claims %d parts", errTorn, path, m.parts)
	}
	// The table list an older writer left: read past, not used.
	ntables := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	for i := 0; i < ntables; i++ {
		if off+6 > len(body) {
			return nil, fmt.Errorf("%w: %s: truncated table list", errTorn, path)
		}
		off += 6 + int(binary.LittleEndian.Uint16(body[off+4:]))
		if off > len(body) {
			return nil, fmt.Errorf("%w: %s: truncated table list", errTorn, path)
		}
	}
	if off+8 > len(body) {
		return nil, fmt.Errorf("%w: %s: truncated manifest", errTorn, path)
	}
	m.rows = binary.LittleEndian.Uint64(body[off:])
	off += 8
	if off+4 > len(body) {
		return nil, fmt.Errorf("%w: %s: truncated schema section", errTorn, path)
	}
	nschema := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	for i := 0; i < nschema; i++ {
		if off+2 > len(body) {
			return nil, fmt.Errorf("%w: %s: truncated schema section", errTorn, path)
		}
		klen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+klen+4 > len(body) {
			return nil, fmt.Errorf("%w: %s: truncated schema section", errTorn, path)
		}
		key := body[off : off+klen]
		off += klen
		vlen := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if off+vlen > len(body) {
			return nil, fmt.Errorf("%w: %s: truncated schema section", errTorn, path)
		}
		m.schema = append(m.schema, schemaRow{
			key: append([]byte(nil), key...),
			val: append([]byte(nil), body[off:off+vlen]...),
		})
		off += vlen
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %s: %d bytes after the schema section", errTorn, path, len(body)-off)
	}
	return m, nil
}

// partRow decodes the row at body[off:] and returns the offset of the next
// one; ok is false when the row is malformed: a bad marker, a length that
// runs past the body, or a key the tree cannot hold.
func partRow(body []byte, off int) (table uint32, key, val []byte, next int, ok bool) {
	if len(body)-off < 7 || body[off] != 'R' {
		return 0, nil, nil, 0, false
	}
	table = binary.LittleEndian.Uint32(body[off+1:])
	klen := int(binary.LittleEndian.Uint16(body[off+5:]))
	off += 7
	if klen == 0 || klen > btree.MaxKeyLen || len(body)-off < klen+12 {
		return 0, nil, nil, 0, false
	}
	key = body[off : off+klen]
	off += klen + 8 // skip reserved TID slot
	vlen := binary.LittleEndian.Uint32(body[off:])
	off += 4
	if uint64(vlen) > uint64(len(body)-off) {
		return 0, nil, nil, 0, false
	}
	return table, key, body[off : off+int(vlen)], off + int(vlen), true
}

// row is one staged checkpoint row: the offset of its key in the mapped
// part file and the lengths of its key and value (the value follows the
// key's TID slot and value length; see partRow). Like a log item it holds
// no pointer, so the collector scans none of the staged rows; the offset
// is 64 bits wide, so a part may pass 4 GiB.
type row struct {
	off  uint64
	vlen uint32
	klen uint16
}

// run is the rows of one table in one part file, in file order — ascending
// keys — and the mapped part they lie in.
type run struct {
	part []byte
	rows []row
}

func (r *run) key(i int) []byte {
	x := r.rows[i]
	return r.part[x.off : x.off+uint64(x.klen)]
}

func (r *run) value(i int) []byte {
	x := r.rows[i]
	v := x.off + uint64(x.klen) + 12
	return r.part[v : v+uint64(x.vlen)]
}

// tableRun is a run and the table it belongs to.
type tableRun struct {
	table uint32
	run
}

// stagePart maps, verifies and stages one partition file. Verification —
// the footer CRC, then the shape of every row and the ordering rule (a
// malformed or misplaced row makes the part torn), then the tables the rows
// name (one the schema section did not create is a hard error) — completes
// before a row is staged. The rows are offsets into the mapped file, which release unmaps;
// on an error it is released already.
func stagePart(fs vfs.FS, store *core.Store, path string, wantEpoch uint64) (runs []tableRun, release func(), err error) {
	data, unmap, err := fs.Map(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errTorn, err)
	}
	defer func() {
		if err != nil {
			unmap()
		}
	}()
	hdr := len(partMagic) + 8 + 4
	if len(data) < hdr+5 || string(data[:4]) != partMagic {
		return nil, nil, fmt.Errorf("%w: %s: bad part header", errTorn, path)
	}
	body, foot := data[:len(data)-5], data[len(data)-5:]
	if foot[0] != 'E' || crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(foot[1:]) {
		return nil, nil, fmt.Errorf("%w: %s: bad part footer", errTorn, path)
	}
	epoch := binary.LittleEndian.Uint64(body[4:12])
	if epoch != wantEpoch {
		return nil, nil, fmt.Errorf("%w: %s: part epoch %d, manifest %d", errTorn, path, epoch, wantEpoch)
	}
	var sizes []int // rows per run
	rows := 0
	undeclared := int64(-1)
	var prev []byte
	for off := hdr; off < len(body); rows++ {
		table, key, _, next, ok := partRow(body, off)
		if !ok {
			return nil, nil, fmt.Errorf("%w: %s: malformed row at %d", errTorn, path, off)
		}
		if n := len(runs); n > 0 && runs[n-1].table == table {
			if bytes.Compare(prev, key) >= 0 {
				return nil, nil, fmt.Errorf("%w: %s: row at %d does not ascend", errTorn, path, off)
			}
			sizes[n-1]++
		} else {
			for _, r := range runs {
				if r.table == table {
					return nil, nil, fmt.Errorf("%w: %s: table id %d's rows resume at %d", errTorn, path, table, off)
				}
			}
			if store.TableByID(table) == nil && undeclared < 0 {
				undeclared = int64(table)
			}
			runs = append(runs, tableRun{table: table})
			sizes = append(sizes, 1)
		}
		prev = key
		off = next
	}
	if undeclared >= 0 {
		// The schema section was applied before any part is staged, so the
		// part holds rows of a table the set's own schema does not create.
		return nil, nil, fmt.Errorf(
			"recovery: checkpoint part %s references table id %d, but the store has only %d tables",
			path, undeclared, len(store.Tables()))
	}

	staged := make([]row, rows)
	rest := staged
	for i, n := range sizes {
		runs[i].part, runs[i].rows, rest = data, rest[:n], rest[n:]
	}
	for i, off := 0, hdr; off < len(body); i++ {
		_, key, val, next, _ := partRow(body, off)
		// The key follows the row's marker, table id and key length.
		staged[i] = row{off: uint64(off + 7), vlen: uint32(len(val)), klen: uint16(len(key))}
		off = next
	}
	return runs, unmap, nil
}

// checkpointSet is a verified, staged checkpoint set: each table's rows as
// ascending runs, one per part that holds any. The runs read the mapped
// part files until release. The zero value is no checkpoint.
type checkpointSet struct {
	epoch    uint64
	rows     int
	runs     [][]run // by table id
	releases []func()
}

func (c *checkpointSet) release() {
	for _, release := range c.releases {
		if release != nil {
			release()
		}
	}
}

// foundCheckpoint is one checkpoint candidate in a durability directory: a
// directory named checkpoint.<epoch>.
type foundCheckpoint struct {
	path  string
	epoch uint64
}

// checkpointName is the name of the checkpoint set at epoch ce.
func checkpointName(ce uint64) string { return fmt.Sprintf("checkpoint.%d", ce) }

// findCheckpoints lists checkpoint candidates in dir, oldest first. Only a
// directory whose name checkpointName gives back exactly can be a
// checkpoint set (checkpoint.025 is not set 25); whether one is complete
// is for its manifest to say, never for its name.
func findCheckpoints(fs vfs.FS, dir string) ([]foundCheckpoint, error) {
	names, err := fs.Glob(filepath.Join(dir, "checkpoint.*"))
	if err != nil {
		return nil, err
	}
	var found []foundCheckpoint
	for _, n := range names {
		suffix := strings.TrimPrefix(filepath.Base(n), "checkpoint.")
		e, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil || filepath.Base(n) != checkpointName(e) {
			continue // temp, foreign or alias name
		}
		if _, isDir, err := fs.Stat(n); err != nil || !isDir {
			continue
		}
		found = append(found, foundCheckpoint{path: n, epoch: e})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].epoch < found[j].epoch })
	return found, nil
}

// loadCheckpointSet verifies and stages one partitioned checkpoint set,
// staging part files with up to workers goroutines. Integrity failures —
// the ordering rule across parts included — return errTorn (callers fall
// back to an older set); a schema section the applier refuses, or a part
// naming a table it did not create, is a hard error. Either way nothing
// stays staged. The manifest's schema section is applied first —
// materializing the checkpointed schema — before any part is loaded.
func loadCheckpointSet(fs vfs.FS, store *core.Store, ckptDir string, workers int, schema SchemaApplier) (ck checkpointSet, err error) {
	m, err := readManifest(fs, filepath.Join(ckptDir, manifestName))
	if err != nil {
		return ck, err
	}
	for i := range m.schema {
		if err := schema.ApplyCatalogRow(m.schema[i].key, m.schema[i].val); err != nil {
			return ck, fmt.Errorf("recovery: %s schema section: %w", ckptDir, err)
		}
	}
	parts := make([][]tableRun, m.parts)
	ck.releases = make([]func(), m.parts)
	errs := make([]error, m.parts)
	each(m.parts, workers, func(k int) {
		parts[k], ck.releases[k], errs[k] = stagePart(fs, store, filepath.Join(ckptDir, fmt.Sprintf("part.%d", k)), m.epoch)
	})
	defer func() {
		if err != nil {
			ck.release()
		}
	}()
	for _, err := range errs {
		if err != nil {
			return ck, err
		}
	}
	ck.runs = make([][]run, len(store.Tables()))
	for k, p := range parts {
		for _, r := range p {
			if prior := ck.runs[r.table]; len(prior) > 0 {
				if last := &prior[len(prior)-1]; bytes.Compare(last.key(len(last.rows)-1), r.key(0)) >= 0 {
					return ck, fmt.Errorf("%w: %s: part.%d's rows of table id %d do not ascend from the part before", errTorn, ckptDir, k, r.table)
				}
			}
			ck.runs[r.table] = append(ck.runs[r.table], r.run)
			ck.rows += len(r.rows)
		}
	}
	ck.epoch = m.epoch
	return ck, nil
}

// loadNewestCheckpoint stages the newest complete checkpoint in dir,
// falling back past torn or corrupt sets. It returns the zero set when no
// usable checkpoint exists. Hard errors (see loadCheckpointSet) abort
// immediately.
func loadNewestCheckpoint(fs vfs.FS, store *core.Store, dir string, workers int, schema SchemaApplier) (checkpointSet, error) {
	found, err := findCheckpoints(fs, dir)
	if err != nil {
		return checkpointSet{}, err
	}
	for i := len(found) - 1; i >= 0; i-- {
		ck, err := loadCheckpointSet(fs, store, found[i].path, workers, schema)
		if err == nil {
			return ck, nil
		}
		if !errors.Is(err, errTorn) {
			return checkpointSet{}, err // a hard failure: no fallback
		}
	}
	return checkpointSet{}, nil
}

// PruneCheckpoints removes all checkpoint sets in dir except the keep
// newest complete ones; torn sets older than the newest complete one are
// removed as well. It returns the removed paths. The daemon calls this
// after each successful checkpoint. A nil fs is the real filesystem.
func PruneCheckpoints(fs vfs.FS, dir string, keep int) (removed []string, err error) {
	fs = vfs.DefaultFS(fs)
	if keep < 1 {
		keep = 1
	}
	found, err := findCheckpoints(fs, dir)
	if err != nil {
		return nil, err
	}
	complete := func(f foundCheckpoint) bool {
		_, err := readManifest(fs, filepath.Join(f.path, manifestName))
		return err == nil
	}
	kept := 0
	for i := len(found) - 1; i >= 0; i-- {
		f := found[i]
		if complete(f) && kept < keep {
			kept++
			continue
		}
		if kept == 0 {
			// Nothing newer is complete: a torn newest set may be a
			// checkpoint in progress — leave it alone.
			continue
		}
		if err := fs.RemoveAll(f.path); err != nil {
			return removed, err
		}
		removed = append(removed, f.path)
	}
	return removed, nil
}
