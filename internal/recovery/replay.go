package recovery

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"silo/internal/btree"
	"silo/internal/core"
	"silo/internal/record"
	"silo/internal/tid"
	"silo/internal/vfs"
	"silo/internal/wal"
)

// SchemaApplier reconstructs a store's schema from replayed DDL-catalog
// rows (internal/catalog implements it). Recovery feeds it the checkpoint
// manifest's schema section first, then the catalog-table entries found in
// the log (CE ≤ epoch ≤ D), in sequence-key order, all before any tree is
// built — so every table and index exists, at its original id, by the time
// the rows are laid into them. The applier must
// tolerate overlap: when a set is abandoned for an older one after its
// manifest was applied, the same rows reappear in the log and must be
// skipped by sequence number.
type SchemaApplier interface {
	ApplyCatalogRow(key, val []byte) error
}

// CatalogTableID is the table id of the silo-level DDL catalog when a
// SchemaApplier is in use: the catalog is always the store's first table.
const CatalogTableID = 0

// Options configures a parallel recovery pass.
type Options struct {
	// Workers is the number of replay applier goroutines, and the number
	// of checkpoint parts staged, of tables built, and of log segments
	// mapped or decoded, at a time. 1 is the least parallel replay: one
	// segment after the other feeding one applier.
	Workers int
	// Schema, when non-nil, makes recovery self-describing: table
	// CatalogTableID holds DDL records that are applied — manifest schema
	// section first, then the log's catalog entries — before data replay,
	// reconstructing the full schema. Nil is for the raw-store harnesses
	// that write logs below the silo layer: the caller has created every
	// table, in its original order, before recovering.
	Schema SchemaApplier
	// FS is the filesystem to recover from; nil means the real one. The
	// simulation harness recovers from its fault-injected in-memory
	// filesystem.
	FS vfs.FS
}

// Result reports what a recovery pass did, with per-stage timing so
// recovery speed can be tracked over time (cmd/silo-recover prints it).
type Result struct {
	wal.RecoveryResult

	// CheckpointEpoch is the snapshot epoch CE of the loaded checkpoint
	// (0 when recovery ran from logs alone).
	CheckpointEpoch uint64
	// CheckpointRows is the number of rows the loaded checkpoint holds.
	CheckpointRows int
	// TxnsBelowCheckpoint counts logged transactions skipped because the
	// loaded checkpoint already covers their epochs (epoch < CE).
	TxnsBelowCheckpoint int
	// LogBytes is the total size of the parsed log segments.
	LogBytes int64
	// LogFiles is the number of log segments parsed.
	LogFiles int
	// Workers is the applier parallelism actually used.
	Workers int

	// EntriesSuperseded counts log entries that were decoded, in range
	// (CE ≤ epoch ≤ D), and lost to a newer TID for the same key — in the
	// log or, rarely, in the checkpoint. EntriesApplied (in the embedded
	// RecoveryResult) counts the distinct (table, key) winners that changed
	// the checkpoint's image, so superseded / (applied + superseded) is the
	// log's rewrite ratio: the share of replay work that coalescing
	// removes. DeletesDropped counts the remaining case, a key whose newest
	// logged version is a delete and which the checkpoint does not hold.
	// The three sum to the in-range entries decoded.
	EntriesSuperseded int
	DeletesDropped    int

	// CheckpointLoad, LogRead, and LogApply are the wall-clock durations
	// of the three stages: verifying and staging the checkpoint; pass 1 of
	// replay (reading the segments and verifying their frames, which
	// yields D); and pass 2 (decoding and coalescing entries, then building
	// every table from them and the checkpoint's rows).
	CheckpointLoad time.Duration
	LogRead        time.Duration
	LogApply       time.Duration

	// IndexesRolledForward and IndexesRolledBack name indexes whose
	// interrupted creation (a crash between the catalog's create record
	// and the backfill completing) recovery finished or rolled back
	// cleanly. Filled by the silo layer's DDL lifecycle, not by Recover
	// itself.
	IndexesRolledForward []string
	IndexesRolledBack    []string
}

// Recover restores a store from the newest complete checkpoint in dir (if
// any) plus the log segments in dir: per record, the newest of its
// checkpoint row and its versions logged with CE ≤ epoch ≤ D (see replay).
// The store must otherwise be empty and, without Options.Schema, must already hold
// the schema's tables in their original order; a log or checkpoint
// referencing a table the store lacks fails with an error naming its id.
// A directory with no log (empty, or not there yet) recovers to D = 0.
// The caller should restart the epoch counter above max(D, CE).
func Recover(store *core.Store, dir string, opts Options) (Result, error) {
	var res Result
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	res.Workers = opts.Workers
	opts.FS = vfs.DefaultFS(opts.FS)

	t0 := time.Now()
	ck, err := loadNewestCheckpoint(opts.FS, store, dir, opts.Workers, opts.Schema)
	if err != nil {
		return res, err
	}
	defer ck.release()
	res.CheckpointEpoch = ck.epoch
	res.CheckpointRows = ck.rows
	res.CheckpointLoad = time.Since(t0)

	err = replay(store, dir, &opts, &ck, &res)
	return res, err
}

// each runs fn(0) … fn(n−1) on their own goroutines, at most workers at a
// time, and waits for them all.
func each(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fn(i)
		}()
	}
	wg.Wait()
}

// item is one in-range log entry on its way to the applier that owns its
// key, and then that key's newest version in the applier's table. key and
// value alias the mapped segment (or an inflated frame), which replay
// releases only after the trees are built.
type item struct {
	hash  uint64 // entryHash; once absorbed, the index of build's span
	tid   uint64
	key   []byte
	value []byte
	table uint32
	del   bool
}

const applyBatch = 256

// replay is the two-pass log replay. Pass 1 maps every segment (no copy)
// and walks its frame headers and CRCs, in parallel, which yields each
// segment's usable prefix and durable bound — so D is known before a single
// entry is decoded. Pass 2 decodes: each segment's goroutine walks its
// transactions in place (wal.Segment.Walk: no TxnRecord, no copy), drops
// those outside CE ≤ epoch ≤ D, and routes the rest by hash(table, key)
// straight to the applier owning that hash. An applier keeps only the
// newest TID per key. Once every segment is decoded and the schema pre-pass
// has run, every table is built once from its checkpoint rows and the
// appliers' winners (build). The paper's recovery rule (§4.10) is what
// makes this sound: the recovered state is, per record, the version with
// the largest TID ≤ D, so versions that lose the comparison need never
// reach the tree, and the order the rest reach it in is free.
func replay(store *core.Store, logDir string, opts *Options, ck *checkpointSet, res *Result) error {
	infos, err := wal.ListLogFiles(opts.FS, logDir)
	if err != nil {
		return err
	}
	res.LogFiles = len(infos)

	// Pass 1. The segments stay mapped until the trees are built: the items
	// routed in pass 2 alias them.
	t0 := time.Now()
	segs := make([]wal.Segment, len(infos))
	releases := make([]func(), len(infos))
	errs := make([]error, len(infos))
	defer func() {
		for _, release := range releases {
			if release != nil {
				release()
			}
		}
	}()
	each(len(infos), opts.Workers, func(i int) {
		data, release, err := opts.FS.Map(infos[i].Path)
		if err != nil {
			errs[i] = err
			return
		}
		segs[i], releases[i] = wal.ScanSegment(data), release
	})
	durables := make([]uint64, len(infos))
	for i := range segs {
		if errs[i] != nil {
			return errs[i]
		}
		res.LogBytes += segs[i].Size
		durables[i] = segs[i].Durable
	}
	d := wal.DurableBound(infos, durables)
	res.DurableEpoch = d
	res.LogRead = time.Since(t0)

	// Pass 2: decode and coalesce.
	t1 := time.Now()
	defer func() { res.LogApply = time.Since(t1) }()
	appliers := make([]*applier, opts.Workers)
	// Recycled batches: an applier offers each one back once it has copied
	// the winners out, so the batches in flight are all pass 2 allocates
	// for routing. Room for every applier's queue, so none is dropped while
	// the decoders are the slower side.
	free := make(chan []item, queuedBatches*len(appliers))
	var absorb sync.WaitGroup
	for k := range appliers {
		a := &applier{in: make(chan []item, queuedBatches)}
		appliers[k] = a
		absorb.Add(1)
		go func() {
			defer absorb.Done()
			for batch := range a.in {
				a.absorb(batch)
				select {
				case free <- batch:
				default:
				}
			}
		}()
	}
	routers := make([]router, len(infos))
	each(len(infos), opts.Workers, func(i int) {
		r := &routers[i]
		*r = router{d: d, minEpoch: ck.epoch, wantSchema: opts.Schema != nil,
			appliers: appliers, free: free, batches: make([][]item, len(appliers))}
		segs[i].Walk(r)
		r.flush()
	})
	for _, a := range appliers {
		close(a.in)
	}
	absorb.Wait()

	var schema []schemaRow
	var tables uint32 // one more than the largest table id an entry names
	for i := range routers {
		r := &routers[i]
		if r.err != nil {
			return fmt.Errorf("%s: %w", infos[i].Path, r.err)
		}
		res.TxnsApplied += r.applied
		res.TxnsSkipped += r.skipped
		res.TxnsBelowCheckpoint += r.below
		schema = append(schema, r.schema...)
		tables = max(tables, r.tables)
	}

	// Schema pre-pass: apply the log's DDL-catalog entries (in sequence-
	// key order, which is commit order — DDL appends are serialized) so
	// every table a data entry references exists before the build.
	// Entries beyond D were dropped like any other; entries the checkpoint
	// manifest already applied are deduplicated by the applier.
	sort.Slice(schema, func(i, j int) bool { return bytes.Compare(schema[i].key, schema[j].key) < 0 })
	for i := range schema {
		if err := opts.Schema.ApplyCatalogRow(schema[i].key, schema[i].val); err != nil {
			return fmt.Errorf("recovery: log schema replay: %w", err)
		}
	}

	if have := len(store.Tables()); int(tables) > have {
		return fmt.Errorf("recovery: log references table id %d, but the store has only %d tables", tables-1, have)
	}
	build(store, ck, appliers, opts.Workers, res)
	return nil
}

// span is one key range of one table on its way into the tree: the
// checkpoint run that starts it (if any) and the log's winners in it.
type span struct {
	run                          []row
	wins                         []winner
	applied, superseded, dropped int
}

// winner is an absorbed item as build sorts it. prefix is the key's first
// eight bytes, big-endian and zero-padded: keys order as their prefixes
// do where those differ, so most comparisons read no key.
type winner struct {
	prefix uint64
	*item
}

// build builds every table once, with btree.Tree.Build. A table's key
// space is cut into spans at the first keys of its checkpoint runs. The
// winners are dealt to their spans (counted first, so no array regrows),
// and each span is sorted and merged with its run, spans in parallel.
func build(store *core.Store, ck *checkpointSet, appliers []*applier, workers int, res *Result) {
	tables := store.Tables()
	runs := make([][][]row, len(tables)) // one empty run for a table the set lacks
	first := make([]int, len(tables)+1)  // table t's spans are first[t] … first[t+1]−1
	var spans []span
	for t := range tables {
		runs[t] = [][]row{nil}
		if t < len(ck.runs) && len(ck.runs[t]) > 0 {
			runs[t] = ck.runs[t]
		}
		for _, run := range runs[t] {
			spans = append(spans, span{run: run})
		}
		first[t+1] = len(spans)
	}
	// A winner's span, the last whose run starts at or below its key (else
	// the table's first), goes in its hash, appliers in parallel; then the
	// winners are counted into their spans and dealt.
	each(len(appliers), workers, func(a int) {
		for i := 0; i < appliers[a].n; i++ {
			w := appliers[a].win(i)
			r := runs[w.table]
			w.hash = uint64(first[w.table] + sort.Search(len(r)-1, func(k int) bool {
				return bytes.Compare(r[k+1][0].key, w.key) > 0
			}))
		}
	})
	count := make([]int, len(spans))
	for _, a := range appliers {
		for i := 0; i < a.n; i++ {
			count[a.win(i).hash]++
		}
		res.EntriesSuperseded += a.superseded
	}
	for s := range spans {
		spans[s].wins = make([]winner, 0, count[s])
	}
	for _, a := range appliers {
		for i := 0; i < a.n; i++ {
			w := a.win(i)
			spans[w.hash].wins = append(spans[w.hash].wins, winner{item: w})
		}
	}

	// The rows of the checkpoint recover at the last TID of epoch CE−1: it
	// holds exactly the versions of epoch < CE, so a logged write of epoch
	// ≥ CE must win the comparison and one of epoch < CE must lose.
	word := tid.Make(max(ck.epoch, 1)-1, tid.MaxSeq).WithLatest(true)
	items := make([][]btree.Item, len(spans))
	each(len(spans), workers, func(s int) { items[s] = spans[s].merge(word) })
	for _, sp := range spans {
		res.EntriesApplied += sp.applied
		res.EntriesSuperseded += sp.superseded
		res.DeletesDropped += sp.dropped
	}
	each(len(tables), workers, func(t int) { tables[t].Tree.Build(items[first[t]:first[t+1]]...) })
}

// merge sorts the span's winners and merges them with its run, in key
// order. Where both hold a key the larger TID wins, and a winning delete
// leaves no row. A record is made only for a row that survives.
func (sp *span) merge(rowWord tid.Word) []btree.Item {
	for i := range sp.wins {
		var b [8]byte
		copy(b[:], sp.wins[i].key)
		sp.wins[i].prefix = binary.BigEndian.Uint64(b[:])
	}
	slices.SortFunc(sp.wins, func(a, b winner) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		return bytes.Compare(a.key, b.key)
	})
	out := make([]btree.Item, 0, len(sp.run)+len(sp.wins))
	run, wins := sp.run, sp.wins
	for len(run) > 0 || len(wins) > 0 {
		c := -1 // run[0] against wins[0]
		if len(run) == 0 {
			c = 1
		} else if len(wins) > 0 {
			c = bytes.Compare(run[0].key, wins[0].key)
		}
		if c < 0 || c == 0 && wins[0].tid <= rowWord.TID() {
			if c == 0 {
				sp.superseded++
				wins = wins[1:]
			}
			out = append(out, btree.Item{Key: run[0].key, Rec: record.New(rowWord, run[0].val)})
			run = run[1:]
			continue
		}
		w, key := wins[0], wins[0].key
		wins = wins[1:]
		switch {
		case c == 0:
			key, run = run[0].key, run[1:] // the same bytes, read in order by Build
		case w.del:
			sp.dropped++ // nothing to delete
			continue
		}
		sp.applied++
		if !w.del {
			out = append(out, btree.Item{Key: key, Rec: record.New(tid.Word(w.tid).WithLatest(true), w.value)})
		}
	}
	return out
}

// queuedBatches is the depth of an applier's input queue: enough that a
// decoder whose entries bunch on one applier keeps running while that
// applier catches up, small enough that the batches in flight stay a few
// hundred kilobytes.
const queuedBatches = 8

// router is one segment's wal.Visitor in pass 2: it filters transactions
// by epoch, collects DDL-catalog rows for the schema pre-pass, and batches
// in-range entries to the appliers. One goroutine owns it.
type router struct {
	d, minEpoch uint64
	wantSchema  bool
	appliers    []*applier
	free        <-chan []item
	batches     [][]item // open batch per applier

	tid     uint64 // transaction being decoded (CE ≤ its epoch ≤ D)
	applied int
	skipped int
	below   int
	tables  uint32 // one more than the largest table id routed
	schema  []schemaRow
	err     error
}

func (r *router) Txn(t uint64, writes int) bool {
	ep := tid.Word(t).Epoch()
	if ep > r.d {
		r.skipped++
		return false
	}
	if ep < r.minEpoch {
		// The checkpoint covers the data below CE, and its manifest's
		// schema section the catalog rows: nothing in here is needed.
		r.below++
		return false
	}
	r.tid = t
	r.applied++
	return true
}

func (r *router) Entry(table uint32, key, value []byte, del bool) {
	if r.wantSchema && table == CatalogTableID && !del {
		// Copied: the catalog may keep what it is given.
		r.schema = append(r.schema, schemaRow{
			key: append([]byte(nil), key...),
			val: append([]byte(nil), value...),
		})
	}
	if len(key) == 0 || len(key) > btree.MaxKeyLen {
		if r.err == nil {
			r.err = fmt.Errorf("recovery: logged key of %d bytes for table id %d (keys are 1 to %d bytes)", len(key), table, btree.MaxKeyLen)
		}
		return
	}
	r.tables = max(r.tables, table+1)
	h := entryHash(table, key)
	k := int(h % uint64(len(r.appliers)))
	b := r.batches[k]
	if b == nil {
		select {
		case b = <-r.free:
			b = b[:0]
		default:
			b = make([]item, 0, applyBatch)
		}
	}
	b = append(b, item{hash: h, tid: r.tid, key: key, value: value, table: table, del: del})
	if len(b) == cap(b) {
		r.appliers[k].in <- b
		b = nil
	}
	r.batches[k] = b
}

// flush sends the partly filled batches.
func (r *router) flush() {
	for k, b := range r.batches {
		if len(b) > 0 {
			r.appliers[k].in <- b
		}
	}
}

// applier owns the keys whose hash routes to it. While segments are being
// decoded it keeps, per key, the entry with the largest TID (absorb); build
// then merges those winners into the trees. The winners are append-only and
// kept in fixed chunks, so that growing never copies or zeroes what is
// already there, and build can point at them where they are. index is an
// open-addressing table over the winners: a slot holds a winner's position
// plus one, tagged with the hash's high half so that most mismatches are
// rejected without touching the winner.
type applier struct {
	in    chan []item
	wins  [][]item // winner i is wins[i/winChunk][i%winChunk]
	n     int      // winners
	index []uint64

	superseded int // decoded in range, lost to a newer TID in the log
}

// winChunk is the number of winners per chunk (72 KiB of items).
const winChunk = 1024

func (a *applier) win(i int) *item { return &a.wins[i/winChunk][i%winChunk] }

func (a *applier) absorb(batch []item) {
	for i := range batch {
		it := &batch[i]
		if 2*a.n >= len(a.index) {
			a.grow()
		}
		mask := uint64(len(a.index) - 1)
		tag := it.hash &^ 0xffffffff
		for p := (it.hash >> 16) & mask; ; p = (p + 1) & mask {
			slot := a.index[p]
			if slot == 0 {
				if a.n%winChunk == 0 {
					a.wins = append(a.wins, make([]item, winChunk))
				}
				*a.win(a.n) = *it
				a.n++
				a.index[p] = tag | uint64(a.n)
				break
			}
			if slot&^0xffffffff != tag {
				continue
			}
			w := a.win(int(uint32(slot)) - 1)
			if w.hash == it.hash && w.table == it.table && bytes.Equal(w.key, it.key) {
				a.superseded++
				if it.tid > w.tid {
					w.tid, w.value, w.del = it.tid, it.value, it.del
				}
				break
			}
		}
	}
}

// grow doubles the index and re-enters every winner.
func (a *applier) grow() {
	n := 2 * len(a.index)
	if n == 0 {
		n = 1 << 10
	}
	a.index = make([]uint64, n)
	mask := uint64(n - 1)
	for i := 0; i < a.n; i++ {
		h := a.win(i).hash
		p := (h >> 16) & mask
		for a.index[p] != 0 {
			p = (p + 1) & mask
		}
		a.index[p] = h&^0xffffffff | uint64(i+1)
	}
}

// entryHash routes an entry to an applier and places it in that applier's
// table: FNV-1a over the table id and key, then a finalizer so that every
// bit range of the result is usable (the applier is picked from the low
// bits, the slot from the middle, the tag from the top).
func entryHash(table uint32, key []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(table >> (8 * i)))
		h *= prime
	}
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
