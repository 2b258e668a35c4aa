package wal

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"silo/internal/core"
	"silo/internal/record"
	"silo/internal/tid"
	"silo/internal/vfs"
)

// RecoveryResult summarizes a recovery pass.
type RecoveryResult struct {
	// DurableEpoch is D = min over loggers of the last logged d_l.
	DurableEpoch uint64
	// TxnsApplied counts transactions replayed (epoch ≤ D).
	TxnsApplied int
	// TxnsSkipped counts logged transactions beyond D, which must not be
	// replayed (the serial order within an epoch is not recoverable, §4.10).
	TxnsSkipped int
	// EntriesApplied counts record modifications that changed the store:
	// every put, and every delete of a key the store held.
	EntriesApplied int
}

// LogFileInfo identifies one log segment on disk. Loggers write log.<id>
// for their first segment and log.<id>.<seq> after each rotation
// (Config.SegmentBytes); recovery groups segments by logger to compute the
// durable bound.
type LogFileInfo struct {
	Path   string
	Logger int
	Seq    uint64
}

// ListLogFiles returns the log segments in dir sorted by (logger, seq).
// A file counts only if SegmentName gives its name back exactly, so an
// alias of a real name (log.01, log.+1, log.1.0) is ignored like any other
// foreign file. An empty
// directory yields an empty slice and no error. A nil fs is the real
// filesystem, here and in every function of this package that takes one.
func ListLogFiles(fs vfs.FS, dir string) ([]LogFileInfo, error) {
	names, err := vfs.DefaultFS(fs).Glob(filepath.Join(dir, "log.*"))
	if err != nil {
		return nil, err
	}
	var infos []LogFileInfo
	for _, name := range names {
		rest := strings.TrimPrefix(filepath.Base(name), "log.")
		parts := strings.Split(rest, ".")
		if len(parts) < 1 || len(parts) > 2 {
			continue
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil || id < 0 {
			continue
		}
		var seq uint64
		if len(parts) == 2 {
			seq, err = strconv.ParseUint(parts[1], 10, 64)
			if err != nil {
				continue
			}
		}
		if filepath.Base(name) != SegmentName(id, seq) {
			continue
		}
		infos = append(infos, LogFileInfo{Path: name, Logger: id, Seq: seq})
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Logger != infos[j].Logger {
			return infos[i].Logger < infos[j].Logger
		}
		return infos[i].Seq < infos[j].Seq
	})
	return infos, nil
}

// Segment is the verified prefix of one log segment: every frame in it has a
// well-formed header and a matching CRC (pass 1 of recovery, ScanSegment).
// Only a Segment can be decoded (Walk), so entries are never read from bytes
// that were not checked, and the frames are checksummed exactly once.
type Segment struct {
	// Durable is the largest durable-epoch frame in the prefix: this
	// segment's contribution to its logger's bound d_l. It is the maximum,
	// not the last. Today a process recovers a directory before its loggers
	// start, and its epoch counter restarts above D, so the frames it appends
	// only grow; but directories written by earlier builds — which started
	// the loggers first and let each epoch tick before recovery append a
	// small d behind the large ones of the run being recovered — and crash
	// images of them hold such frames, and taking the last one would shrink
	// D to 1 and silently discard the log.
	Durable uint64
	// Size is the length of the whole file, torn tail included.
	Size int64
	// Deflated is the number of deflated frames in the prefix: how many
	// payloads a Walk inflates.
	Deflated int

	data []byte
}

// ScanSegment walks data's frame headers and CRCs — no payload is decoded —
// and returns the prefix that is usable: everything before the first torn
// or damaged frame (as with any write-ahead log, what follows one is
// discarded).
func ScanSegment(data []byte) Segment {
	s := Segment{Size: int64(len(data))}
	off := 0
	for off < len(data) {
		kind, _, epoch, next, err := frameAt(data, off, true)
		if err != nil {
			break
		}
		switch {
		case kind == frameDurable && epoch > s.Durable:
			s.Durable = epoch
		case kind == frameDeflated:
			s.Deflated++
		}
		off = next
	}
	s.data = data[:off]
	return s
}

// Walk decodes the segment's transactions into v, in log order, without
// copying or allocating (deflated frames are inflated first). A frame whose
// payload does not inflate or decode ends the walk before any of it is
// shown: such a frame cannot come from a torn write (its CRC matched), so
// nothing after it is trusted either. complete reports whether the walk
// reached the end of the verified prefix; when it is false the segment holds
// transactions v was not shown. A FrameVisitor is shown each payload before
// its transactions.
func (s Segment) Walk(v Visitor) (complete bool) {
	fv, _ := v.(FrameVisitor)
	for off := 0; off < len(s.data); {
		// The prefix is verified: no error, and no second checksum.
		kind, payload, _, next, _ := frameAt(s.data, off, false)
		off = next
		switch kind {
		case frameDurable:
			continue
		case frameDeflated:
			var err error
			if payload, err = inflate(payload); err != nil {
				return false
			}
		}
		if !checkPayload(payload) {
			return false
		}
		if fv != nil {
			fv.Frame(payload, kind == frameDeflated)
		}
		walkPayload(payload, v)
	}
	return true
}

// ParseLogFile reads and parses one log segment, tolerating a torn tail. It
// returns the segment's transactions, its durable epoch (see
// Segment.Durable), and its size in bytes.
func ParseLogFile(fs vfs.FS, path string) (txns []TxnRecord, durable uint64, size int64, err error) {
	data, release, err := vfs.DefaultFS(fs).Map(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer release() // the collector copies what it keeps
	seg := ScanSegment(data)
	var c txnCollector
	seg.Walk(&c)
	return c.txns, seg.Durable, seg.Size, nil
}

// DurableBound computes the global durable epoch D from per-segment
// durable epochs (Segment.Durable): segments of one logger share that logger's bound (its
// maximum — d_l only advances), and D is the minimum over loggers. With
// one segment per logger this is the plain minimum over files.
func DurableBound(infos []LogFileInfo, durables []uint64) uint64 {
	perLogger := map[int]uint64{}
	for i, fi := range infos {
		if durables[i] > perLogger[fi.Logger] {
			perLogger[fi.Logger] = durables[i]
		}
	}
	d := ^uint64(0)
	for _, dl := range perLogger {
		if dl < d {
			d = dl
		}
	}
	if d == ^uint64(0) {
		d = 0
	}
	return d
}

// readLogDir parses every log file in dir, tolerating a torn tail (a
// truncated final frame is treated as end-of-log). It returns the segments
// ordered by (logger, segment), each one's transaction records, and each
// one's durable epoch.
func readLogDir(dir string) (infos []LogFileInfo, files [][]TxnRecord, durables []uint64, err error) {
	infos, err = ListLogFiles(nil, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(infos) == 0 {
		return nil, nil, nil, fmt.Errorf("wal: no log files in %s", dir)
	}
	for _, fi := range infos {
		txns, d, _, err := ParseLogFile(nil, fi.Path)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, txns)
		durables = append(durables, d)
	}
	return infos, files, durables, nil
}

// Recover replays the logs in dir into store, which must contain the
// schema's tables (created in the same order as when the log was written,
// so table IDs line up) and must otherwise be empty. It returns the durable
// epoch D; the caller should restart the store's epoch counter above D
// (§4.10: transactions with epochs after D are ignored — replaying a subset
// of an epoch could produce an inconsistent state).
//
// Recover is the sequential reference implementation: it materializes every
// transaction and applies them one by one in TID order, the paper's
// description taken literally. internal/recovery provides the coalescing
// parallel path, which must produce identical state.
func Recover(store *core.Store, dir string) (RecoveryResult, error) {
	var res RecoveryResult
	infos, files, durables, err := readLogDir(dir)
	if err != nil {
		return res, err
	}
	res.DurableEpoch = DurableBound(infos, durables)
	d := res.DurableEpoch

	var all []TxnRecord
	for _, f := range files {
		all = append(all, f...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].TID < all[j].TID })

	for i := range all {
		t := &all[i]
		if tid.Word(t.TID).Epoch() > d {
			res.TxnsSkipped++
			continue
		}
		res.TxnsApplied++
		word := tid.Word(t.TID).WithLatest(true)
		for j := range t.Entries {
			e := &t.Entries[j]
			tbl := store.TableByID(e.Table)
			if tbl == nil {
				continue // undeclared table: skipped, as the schema is the caller's
			}
			// In TID order every logged version is newer than the one in
			// the store, so it replaces it: the old row goes, and a put
			// inserts the new one.
			if removed, _ := tbl.Tree.Remove(e.Key); removed || !e.Delete {
				res.EntriesApplied++
			}
			if !e.Delete {
				tbl.Tree.InsertIfAbsent(e.Key, record.New(word, e.Value))
			}
		}
	}
	return res, nil
}
