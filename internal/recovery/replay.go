package recovery

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
	"unsafe"

	"silo/internal/btree"
	"silo/internal/core"
	"silo/internal/prefetch"
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

// CatalogTableID is the table id of the DDL catalog (catalog.New), the one
// source of schema: checkpoints embed its rows as their schema section,
// and recovery hands its logged rows to Options.Schema before building any
// table. It is always the store's first table.
const CatalogTableID = 0

// Options configures a parallel recovery pass.
type Options struct {
	// Workers is the number of replay applier goroutines, and the number
	// of checkpoint parts staged, of log segments mapped, of log ranges
	// checked or pieces decoded, of spans merged, and of stretches of a
	// table's leaves built, at a time. It also sets the size of a piece: a
	// Workers-th of the log's verified bytes, so that the log is decoded
	// Workers wide however its bytes are spread over segments. 1 is the
	// least parallel replay: one segment after the other feeding one
	// applier. Values below 1 mean 1, and values above 1<<16 mean
	// 1<<16, because a log winner names its applier in 16 bits.
	Workers int
	// Schema is the store's catalog, and is required: table
	// CatalogTableID holds DDL records that are applied — manifest schema
	// section first, then the log's catalog entries — before data replay,
	// reconstructing the full schema.
	Schema SchemaApplier
	// FS is the filesystem to recover from; nil means the real one. The
	// simulation harness recovers from its fault-injected in-memory
	// filesystem.
	FS vfs.FS
}

// Result reports what a recovery pass did, with per-stage timing so
// recovery speed can be tracked over time (cmd/silo-recover prints it).
type Result struct {
	// DurableEpoch is D = min over loggers of the last logged d_l.
	DurableEpoch uint64
	// TxnsApplied counts the logged transactions replayed: CE ≤ epoch ≤ D.
	TxnsApplied int
	// TxnsSkipped counts logged transactions beyond D, which must not be
	// replayed (the serial order within an epoch is not recoverable, §4.10).
	TxnsSkipped int
	// EntriesApplied counts the distinct (table, key) winners of the log
	// that changed the checkpoint's image: the keys whose newest version in
	// range is a put, and those whose newest is a delete of a checkpointed
	// row.
	EntriesApplied int

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
	// LogPieces is the number of pieces pass 2 decoded the segments in,
	// each on its own goroutine (wal.Segment.Split): about Workers, plus
	// one per segment at most.
	LogPieces int
	// Workers is the applier parallelism actually used.
	Workers int

	// EntriesSuperseded counts log entries that were decoded, in range
	// (CE ≤ epoch ≤ D), and lost to a newer TID for the same key in the
	// log (a checkpoint row is older than every entry in range), so
	// superseded / (applied + superseded) is the log's rewrite ratio: the
	// share of replay work that coalescing removes. DeletesDropped counts
	// the remaining case, a key whose newest logged version is a delete and
	// which the checkpoint does not hold. The three sum to the in-range
	// entries decoded.
	EntriesSuperseded int
	DeletesDropped    int

	// CheckpointLoad, LogRead, and LogApply are the wall-clock durations
	// of the three stages: verifying and staging the checkpoint; pass 1 of
	// replay (reading the segments and verifying their frames, which
	// yields D); and pass 2 (decoding and coalescing entries, then building
	// every table from them and the checkpoint's rows). Build is the last
	// part of LogApply: sorting the log's winners, merging them with the
	// checkpoint's rows and building the trees.
	CheckpointLoad time.Duration
	LogRead        time.Duration
	LogApply       time.Duration
	Build          time.Duration

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
// The store must hold its catalog at table CatalogTableID, Options.Schema,
// and nothing else: every other table comes back from the catalog's rows,
// at its original id, and a log or checkpoint referencing a table they do
// not create fails with an error naming its id. A directory with no log
// (empty, or not there yet) recovers to D = 0. The caller should restart
// the epoch counter above max(D, CE).
func Recover(store *core.Store, dir string, opts Options) (Result, error) {
	var res Result
	if opts.Schema == nil {
		return res, errors.New("recovery: Options.Schema is required: the catalog is the one source of schema")
	}
	// A winner names its applier in 16 bits.
	opts.Workers = min(max(opts.Workers, 1), 1<<16)
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
// key, and then that key's newest version in the applier's table. It holds
// no pointer, so the collector scans neither the batches nor the winner
// chunks. The key and value stay where the log holds them: src names the
// buffer (see sources), off and voff their offsets in it. Every decision
// replay makes on the key — is it the same key, which span does it land in,
// where does it sort — reads w0 and w1, its first 16 bytes as big-endian,
// zero-padded words (the form a tree slot keeps them in), and its length;
// the bytes are read only when two keys tie on both words and both go on
// past 16 bytes, and to copy a surviving row into its record and its tree.
type item struct {
	hash   uint64 // entryHash; once absorbed, the index of build's span
	tid    uint64
	w0, w1 uint64 // key bytes 0–7 and 8–15
	off    uint64 // the key's offset in its source
	voff   uint64 // the value's
	vlen   uint32
	src    uint32
	table  uint32
	klen   uint8
	del    bool
}

// sources are the buffers items point into: every mapped segment, by its
// index in the directory listing, then every frame pass 2 inflates, in a
// range reserved for each piece (Segment.Deflated); an item from a piece's
// plain frame keeps its offsets into the whole segment's source. The slice
// never grows: a router sets an inflated frame's entry before routing an
// item from it, which the applier receives only after.
type sources [][]byte

func (s sources) key(it *item) []byte   { return s[it.src][it.off : it.off+uint64(it.klen)] }
func (s sources) value(it *item) []byte { return s[it.src][it.voff : it.voff+uint64(it.vlen)] }

// tail is what the words leave out of a key longer than 16 bytes.
func (s sources) tail(it *item) []byte { return s.key(it)[inlineBytes:] }

// inlineBytes is the key bytes an item's words hold (btree.KeyWords).
const inlineBytes = 16

// order compares two keys, given as their words and lengths, as
// bytes.Compare orders them. Keys whose words tie differ only past them:
// when either ends within 16 bytes it is a prefix of the other and the
// shorter sorts first; when both go on, tie is true and their tails decide,
// which only the caller can read.
func order(a0, a1 uint64, an int, b0, b1 uint64, bn int) (c int, tie bool) {
	switch {
	case a0 != b0:
		return cmp.Compare(a0, b0), false
	case a1 != b1:
		return cmp.Compare(a1, b1), false
	case an > inlineBytes && bn > inlineBytes:
		return 0, true
	}
	return cmp.Compare(an, bn), false
}

// applyBatch is the items a router gathers for an applier before sending
// them (8 KiB).
const applyBatch = 128

// replay is the two-pass log replay. Pass 1 maps every segment (no copy)
// and checks its frame headers and CRCs, which yields each segment's usable
// prefix and durable bound — so D is known before a single entry is
// decoded. A segment is checked by as many goroutines as its share of the
// log's bytes is of Workers (wal.ScanSegment), so that one large segment
// keeps every worker busy. Pass 2 decodes: the verified prefixes are cut at
// frame boundaries into pieces of about a Workers-th of their bytes
// (wal.Segment.Split), a piece never spanning two segments, and each
// piece's goroutine walks its transactions in place (wal.Segment.Walk: no
// copy), drops those outside CE ≤ epoch ≤ D, and routes the
// rest by hash(table, key) straight to the applier owning that hash. An
// applier keeps only the newest TID per key. Once every piece is decoded
// and the schema pre-pass has run, every table is built once from its
// checkpoint rows and the appliers' winners (build). The paper's recovery
// rule (§4.10) is what makes this sound: the recovered state is, per
// record, the version with the largest TID ≤ D, so versions that lose the
// comparison need never reach the tree, and the order the rest reach it
// in — which piece decodes which frame when — is free.
func replay(store *core.Store, logDir string, opts *Options, ck *checkpointSet, res *Result) error {
	infos, err := wal.ListLogFiles(opts.FS, logDir)
	if err != nil {
		return err
	}
	res.LogFiles = len(infos)

	// Pass 1. The segments stay mapped until the trees are built: the items
	// routed in pass 2 hold offsets into them. A segment's checkers are its
	// share of the workers, rounded up.
	t0 := time.Now()
	segs := make([]wal.Segment, len(infos))
	srcs := make(sources, len(infos))
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
		srcs[i], releases[i], errs[i] = opts.FS.Map(infos[i].Path)
	})
	var mapped int
	for i := range infos {
		if errs[i] != nil {
			return errs[i]
		}
		mapped += len(srcs[i])
	}
	each(len(infos), opts.Workers, func(i int) {
		segs[i] = wal.ScanSegment(srcs[i], (opts.Workers*len(srcs[i])+mapped-1)/max(mapped, 1))
	})
	durables := make([]uint64, len(infos))
	var verified, deflated int
	for i := range segs {
		res.LogBytes += segs[i].Size
		durables[i] = segs[i].Durable
		verified += segs[i].Len()
		deflated += segs[i].Deflated
	}
	d := wal.DurableBound(infos, durables)
	res.DurableEpoch = d
	res.LogRead = time.Since(t0)

	// Pass 2: decode and coalesce, a router per piece. A piece's inflated
	// frames take the sources from next on.
	t1 := time.Now()
	defer func() { res.LogApply = time.Since(t1) }()
	type piece struct {
		wal.Segment
		seg, next int
	}
	var pieces []piece
	next := len(srcs)
	srcs = append(srcs, make(sources, deflated)...)
	for i := range segs {
		for _, p := range segs[i].Split((verified + opts.Workers - 1) / opts.Workers) {
			pieces = append(pieces, piece{p, i, next})
			next += p.Deflated
		}
	}
	res.LogPieces = len(pieces)
	appliers := make([]*applier, opts.Workers)
	free := batchPool(len(appliers), min(opts.Workers, len(pieces)))
	var absorb sync.WaitGroup
	for k := range appliers {
		a := &applier{in: make(chan []item, queuedBatches), srcs: srcs, wins: make([][]item, 0, winChunks)}
		appliers[k] = a
		absorb.Add(1)
		go func() {
			defer absorb.Done()
			for batch := range a.in {
				a.absorb(batch)
				free <- batch[:0]
			}
		}()
	}
	routers := make([]router, len(pieces))
	each(len(pieces), opts.Workers, func(i int) {
		r := &routers[i]
		*r = router{d: d, minEpoch: ck.epoch, appliers: appliers, free: free,
			batches: make([][]item, len(appliers)), srcs: srcs,
			seg: uint32(pieces[i].seg), next: uint32(pieces[i].next)}
		if err := pieces[i].Walk(r); err != nil {
			r.err = err
		}
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
			return fmt.Errorf("%s: %w", infos[pieces[i].seg].Path, r.err)
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
	t2 := time.Now()
	build(store, ck, appliers, srcs, opts.Workers, res)
	res.Build = time.Since(t2)
	return nil
}

// span is one key range of one table on its way into the tree: the
// checkpoint run that starts it (if any) and the log's winners in it.
type span struct {
	run              run
	wins             []winner
	applied, dropped int
}

// winner is an absorbed item as build deals, sorts and merges it: what
// ordering and counting the keys takes — the key's words and length, and
// whether it is a delete — copied so that those read it in place, and where
// the item is, appliers[a].win(i). Like the item it holds no pointer.
type winner struct {
	w0, w1 uint64
	i      uint32
	a      uint16
	klen   uint8
	del    bool
}

// winners finds build's winners' items and their keys.
type winners struct {
	appliers []*applier
	srcs     sources
}

func (ws winners) item(w winner) *item { return ws.appliers[w.a].win(int(w.i)) }

// tie orders two winners whose words are equal.
func (ws winners) tie(a, b winner) int {
	c, tie := order(a.w0, a.w1, int(a.klen), b.w0, b.w1, int(b.klen))
	if tie {
		c = bytes.Compare(ws.srcs.tail(ws.item(a)), ws.srcs.tail(ws.item(b)))
	}
	return c
}

// cmpRow orders a checkpoint row's key against a winner's.
func (ws winners) cmpRow(key []byte, w winner) int {
	w0, w1 := btree.KeyWords(key)
	c, tie := order(w0, w1, len(key), w.w0, w.w1, int(w.klen))
	if tie {
		c = bytes.Compare(key[inlineBytes:], ws.srcs.tail(ws.item(w)))
	}
	return c
}

// build builds every table once, with btree.Tree.Build. A table's key
// space is cut into spans at the first keys of its checkpoint runs. The
// winners are dealt to their spans (counted first, into one array), and
// each span is sorted and merged with its run, spans in parallel; then each
// table's Build fills its leaves in parallel.
func build(store *core.Store, ck *checkpointSet, appliers []*applier, srcs sources, workers int, res *Result) {
	tables := store.Tables()
	runs := make([][]run, len(tables))  // one empty run for a table the set lacks
	first := make([]int, len(tables)+1) // table t's spans are first[t] … first[t+1]−1
	var spans []span
	for t := range tables {
		runs[t] = []run{{}}
		if t < len(ck.runs) && len(ck.runs[t]) > 0 {
			runs[t] = ck.runs[t]
		}
		for _, run := range runs[t] {
			spans = append(spans, span{run: run})
		}
		first[t+1] = len(spans)
	}
	// A winner's span is the last whose run starts at or below its key (else
	// the table's first). The winners are dealt to their spans in two
	// passes, appliers in parallel: each finds its winners' spans (kept in
	// their hashes) and counts them; then, from where those counts say its
	// share of each span starts, it copies them there.
	ws := winners{appliers: appliers, srcs: srcs}
	counts := make([][]int, len(appliers)) // applier a's winners in span s, then where they go
	each(len(appliers), workers, func(a int) {
		c := make([]int, len(spans))
		for i := 0; i < appliers[a].n; i++ {
			it := appliers[a].win(i)
			w, r := it.winner(a, i), runs[it.table]
			it.hash = uint64(first[it.table] + sort.Search(len(r)-1, func(k int) bool {
				return ws.cmpRow(r[k+1].key(0), w) > 0
			}))
			c[it.hash]++
		}
		counts[a] = c
	})
	at := make([]int, len(spans)+1) // span s's winners are at[s] … at[s+1]−1
	for s := range spans {
		at[s+1] = at[s]
		for _, c := range counts {
			c[s], at[s+1] = at[s+1], at[s+1]+c[s]
		}
	}
	dealt, tmp := make([]winner, at[len(spans)]), make([]winner, at[len(spans)])
	each(len(appliers), workers, func(a int) {
		c := counts[a]
		for i := 0; i < appliers[a].n; i++ {
			it := appliers[a].win(i)
			dealt[c[it.hash]] = it.winner(a, i)
			c[it.hash]++
		}
	})
	for s := range spans {
		spans[s].wins = dealt[at[s]:at[s+1]]
	}
	for _, a := range appliers {
		res.EntriesSuperseded += a.superseded
	}

	// The rows of the checkpoint recover at the last TID of epoch CE−1: it
	// holds exactly the versions of epoch < CE, so every logged write in
	// range (epoch ≥ CE) is newer than the row it meets.
	word := tid.Make(max(ck.epoch, 1)-1, tid.MaxSeq).WithLatest(true)
	items := make([][]btree.Item, len(spans))
	each(len(spans), workers, func(s int) { items[s] = spans[s].merge(word, ws, tmp[at[s]:at[s+1]]) })
	for _, sp := range spans {
		res.EntriesApplied += sp.applied
		res.DeletesDropped += sp.dropped
	}
	for t := range tables {
		tables[t].Tree.Build(workers, items[first[t]:first[t+1]]...)
	}
}

// winner is item i of applier a as build deals it.
func (it *item) winner(a, i int) winner {
	return winner{w0: it.w0, w1: it.w1, klen: it.klen, del: it.del, a: uint16(a), i: uint32(i)}
}

// merge sorts the span's winners (tmp is the sort's other buffer) and
// merges them with its run, in key order. Where both hold a key the winner
// wins: every item is of epoch CE or later (the routers drop the rest),
// and the run's rows are older. A winning delete leaves no row. The span's
// rows are born together: their records are one slice, and their values'
// buffers are carved from shared chunks (rowBuf). Only a row that survives
// gets either, and only then is a winner's value read from the log.
func (sp *span) merge(rowWord tid.Word, ws winners, tmp []winner) []btree.Item {
	wins := sortWinners(sp.wins, tmp, ws.tie)
	n := sp.rows(ws, wins)
	out := make([]btree.Item, 0, n)
	recs := make([]record.Record, n)
	var chunk []byte
	add := func(key, value []byte, w tid.Word) {
		r := &recs[len(out)]
		r.Init(w, value, rowBuf(&chunk, len(value), n-len(out)))
		out = append(out, btree.Item{Key: key, Rec: r})
	}
	run, ri := &sp.run, 0
	for ri < len(run.rows) || len(wins) > 0 {
		// The winners' items and values are at random places: ask for the
		// item eight winners on, and for the value of the one four on,
		// whose item was asked for four steps ago.
		if len(wins) > 8 {
			prefetch.Line(uintptr(unsafe.Pointer(ws.item(wins[8]))))
			if x := ws.item(wins[4]); x.vlen > 0 {
				prefetch.Line(addr(ws.srcs[x.src][x.voff:]))
			}
		}
		c := -1 // the run's next row against wins[0]
		if len(wins) > 0 {
			c = 1
			if ri < len(run.rows) {
				c = ws.cmpRow(run.key(ri), wins[0])
			}
		}
		if c < 0 {
			add(run.key(ri), run.value(ri), rowWord)
			ri++
			continue
		}
		it := ws.item(wins[0])
		wins = wins[1:]
		var key []byte
		switch {
		case c == 0:
			key = run.key(ri) // the same bytes, read in order by Build
			ri++
		case it.del:
			sp.dropped++ // nothing to delete
			continue
		default:
			key = ws.srcs.key(it)
		}
		sp.applied++
		if !it.del {
			add(key, ws.srcs.value(it), tid.Word(it.tid).WithLatest(true))
		}
	}
	return out
}

// rowChunk is the most a chunk of recovered values' buffers takes.
const rowChunk = 1 << 20

// rowBuf returns a buffer for a recovered n-byte value carved from *chunk,
// for record.Record.Init: a whole class-sized buffer, header included, so
// that the value's first overwrite hands it to the worker arena like any
// other. A chunk is sized for the rows left to make (left, this one
// included) if their values are all of this one's class, within rowChunk.
// A value that takes no class buffer (empty, or beyond the top class) gets
// nil: Init then allocates an exact one, or none.
func rowBuf(chunk *[]byte, n, left int) []byte {
	c := record.BufClass(n)
	if n == 0 || c >= record.NumClasses {
		return nil
	}
	return record.Carve(chunk, c, min(left*record.BufSize(c), rowChunk))
}

// rows counts the rows merging the run with the sorted winners makes: a
// row per key of either, less the deletes, which win wherever they meet a
// row (a logged entry is of epoch CE or later). It reads the keys' words
// and lengths only, so that merge allocates what it fills.
func (sp *span) rows(ws winners, wins []winner) int {
	n, run, ri := len(sp.run.rows)+len(wins), &sp.run, 0
	for _, w := range wins {
		c := 1
		for ri < len(run.rows) {
			if c = ws.cmpRow(run.key(ri), w); c >= 0 {
				break
			}
			ri++
		}
		if c == 0 {
			n--
		}
		if w.del {
			n--
		}
	}
	return n
}

// sortWinners sorts ws by key, with tmp (as long) the other buffer of an
// LSD radix sort: one stable counting pass per byte of the two words that
// differs somewhere in ws, least significant first, so keys that share
// their leading bytes cost no pass for them. Winners left with equal words
// — keys that extend each other with zero bytes, or share 16 bytes and go
// on — are then put in order by tie. The result is in ws or in tmp.
func sortWinners(ws, tmp []winner, tie func(a, b winner) int) []winner {
	if len(ws) < 2 {
		return ws
	}
	var d0, d1 uint64 // the bits that differ somewhere
	for _, w := range ws[1:] {
		d0 |= w.w0 ^ ws[0].w0
		d1 |= w.w1 ^ ws[0].w1
	}
	for shift := 0; shift < 128; shift += 8 {
		d := d1 >> shift
		if shift >= 64 {
			d = d0 >> (shift - 64)
		}
		if byte(d) != 0 {
			radixPass(ws, tmp, shift)
			ws, tmp = tmp, ws
		}
	}
	for i := 0; i < len(ws); {
		j := i + 1
		for j < len(ws) && ws[j].w0 == ws[i].w0 && ws[j].w1 == ws[i].w1 {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(ws[i:j], tie)
		}
		i = j
	}
	return ws
}

// radixPass deals src into dst by the byte at shift of the 128-bit key w0w1,
// keeping the order of winners that share the byte.
func radixPass(src, dst []winner, shift int) {
	digit := func(w *winner) byte {
		if shift >= 64 {
			return byte(w.w0 >> (shift - 64))
		}
		return byte(w.w1 >> shift)
	}
	var at [256]int
	for i := range src {
		at[digit(&src[i])]++
	}
	sum := 0
	for b, n := range at {
		at[b], sum = sum, sum+n
	}
	for i := range src {
		b := digit(&src[i])
		dst[at[b]] = src[i]
		at[b]++
	}
}

// queuedBatches is the depth of an applier's input queue, and the batches
// the pool holds beyond what the routers keep open and the appliers absorb:
// enough that a router keeps decoding while one applier catches up (at 8,
// routers stalled on it), small enough that the pool stays a few hundred
// kilobytes.
const queuedBatches = 32

// batchPool returns the batches routing uses, all free: enough for each of
// routers at once to hold one open per applier and for each applier to
// absorb one, and queuedBatches more. They are carved from one slab of
// items, which holds no pointer: one allocation whatever their number, and
// nothing for the collector to scan. An applier hands each batch back once
// it has absorbed it. Since a router waiting for a batch holds fewer than
// one per applier, some batch is then always free, queued, or being
// absorbed and about to be.
func batchPool(appliers, routers int) chan []item {
	n := appliers*(routers+1) + queuedBatches
	slab := make([]item, n*applyBatch)
	free := make(chan []item, n)
	for k := range n {
		free <- slab[k*applyBatch : k*applyBatch : (k+1)*applyBatch]
	}
	return free
}

// router is one piece's wal.Visitor in pass 2: it filters transactions
// by epoch, collects DDL-catalog rows for the schema pre-pass, and batches
// in-range entries to the appliers — a frame's only once the whole frame
// has decoded, so that an applier never absorbs part of a torn one. One
// goroutine owns it.
type router struct {
	d, minEpoch uint64
	appliers    []*applier
	free        <-chan []item
	batches     [][]item // open batch per applier
	frame       []item   // the open frame's entries, in range

	srcs sources
	seg  uint32  // the source of the piece's segment
	next uint32  // the next source reserved for an inflated frame
	src  uint32  // the source of the frame being decoded
	base uintptr // and its address

	tid     uint64 // transaction being decoded (CE ≤ its epoch ≤ D)
	applied int
	skipped int
	below   int
	tables  uint32 // one more than the largest table id routed
	schema  []schemaRow
	err     error
}

func (r *router) Frame(payload []byte, inflated bool) {
	r.src = r.seg
	if inflated {
		r.src, r.next = r.next, r.next+1
		r.srcs[r.src] = payload
	}
	r.base = addr(r.srcs[r.src])
	r.frame = r.frame[:0]
}

// FrameEnd routes the frame's entries, or, when the frame is torn, drops
// them: the walk fails, and with it the recovery (replay reports the
// walk's error).
func (r *router) FrameEnd(torn bool) {
	if torn {
		return
	}
	for i := range r.frame {
		r.route(&r.frame[i])
	}
}

// addr is the address of b's first byte. An entry is kept as its offset
// from its frame's source (router.Frame), which holds the frame alive.
func addr(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

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
	if table == CatalogTableID && !del {
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
	it := item{tid: r.tid, src: r.src, off: uint64(addr(key) - r.base),
		vlen: uint32(len(value)), table: table, klen: uint8(len(key)), del: del}
	if len(value) > 0 {
		it.voff = uint64(addr(value) - r.base)
	}
	it.w0, it.w1 = btree.KeyWords(key)
	it.hash = entryHash(table, key, it.w0, it.w1)
	r.frame = append(r.frame, it)
}

// route adds it to the open batch of the applier its hash names, sending
// the batch once full.
func (r *router) route(it *item) {
	k := int(it.hash & 0xffff * uint64(len(r.appliers)) >> 16) // the low 16 bits scaled: no division
	b := r.batches[k]
	if b == nil {
		b = <-r.free
	}
	b = append(b, *it)
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
	srcs  sources
	wins  [][]item // winner i is wins[i/winChunk][i%winChunk]
	n     int      // winners
	index []uint64

	superseded int // decoded in range, lost to a newer TID in the log
}

// winChunk is the number of winners per chunk (128 KiB of items), and
// winChunks the chunks an applier makes room for at the start.
const winChunk, winChunks = 2048, 64

func (a *applier) win(i int) *item { return &a.wins[i/winChunk][i%winChunk] }

// same reports whether two items hold the same key of the same table,
// reading their bytes only when their words and lengths tie past 16 bytes.
func (a *applier) same(x, y *item) bool {
	return x.hash == y.hash && x.w0 == y.w0 && x.w1 == y.w1 && x.klen == y.klen && x.table == y.table &&
		(x.klen <= inlineBytes || bytes.Equal(a.srcs.tail(x), a.srcs.tail(y)))
}

func (a *applier) absorb(batch []item) {
	for i := range batch {
		it := &batch[i]
		if 2*a.n >= len(a.index) {
			a.grow()
		}
		mask := uint64(len(a.index) - 1)
		// Ask for the home slot of the entry eight on, and for the winner
		// in the home slot of the one four on (asked for four steps ago)
		// when its tag matches.
		if j := i + 8; j < len(batch) {
			prefetch.Line(uintptr(unsafe.Pointer(&a.index[(batch[j].hash>>16)&mask])))
		}
		if j := i + 4; j < len(batch) {
			if slot := a.index[(batch[j].hash>>16)&mask]; slot != 0 && slot&^0xffffffff == batch[j].hash&^0xffffffff {
				prefetch.Line(uintptr(unsafe.Pointer(a.win(int(uint32(slot)) - 1))))
			}
		}
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
			if w := a.win(int(uint32(slot)) - 1); a.same(w, it) {
				a.superseded++
				if it.tid > w.tid {
					*w = *it
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
// table. It mixes the key's first word with the table id and key length,
// then each further eight bytes of the key, each step through the
// splitmix64 finalizer, so that every bit range of the result is usable
// (the applier is picked from the low bits, the slot from the middle, the
// tag from the top).
func entryHash(table uint32, key []byte, w0, w1 uint64) uint64 {
	h := mix(w0 ^ (uint64(table)<<8|uint64(len(key)))*0x9e3779b97f4a7c15)
	if len(key) > 8 {
		h = mix(h ^ w1)
	}
	for rest := key[min(len(key), inlineBytes):]; len(rest) > 0; rest = rest[min(len(rest), 8):] {
		w, _ := btree.KeyWords(rest[:min(len(rest), 8)])
		h = mix(h ^ w)
	}
	return h
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
