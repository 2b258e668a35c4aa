// Package mutants is the repository's table of known-bad variants: each
// entry is one exact edit to one source file that breaks a claim, and the
// tests that must fail once it is applied. A test suite is judged by the
// variants it rejects; the table keeps those variants run, not just quoted.
//
//	go test ./internal/mutants                                 # static check, tier-1
//	go test ./internal/mutants -run Kill -kill -v -timeout 60m # apply each, run its killers
//
// The static check holds the table to the tree: every old string occurs
// exactly once in its file and every killer names a test that exists, so a
// refactor that moves the code an entry edits fails tier-1 instead of
// leaving the entry stale. The kill run copies the module once per entry,
// applies the edit and runs each killer; a killer that passes, or an edit
// that does not build, fails the run. A new test or ledger row lands with
// an entry here that it kills.
package mutants

// A mutant is one edit: old, which must occur exactly once in file, becomes
// new. Every killer must fail on the edited tree.
type mutant struct {
	name     string
	file     string // relative to the module root
	old, new string
	killers  []killer
	claim    string // what the edit breaks
}

// A killer is one test run: go test ./pkg -run '^test$' (test is a
// top-level Test or Fuzz function, so a Fuzz killer runs its seed corpus).
type killer struct {
	pkg  string // package directory relative to the module root, "." for the root
	test string
}

// sink is the declaration the allocation mutants add: a package variable
// that a fresh object is stored into, so the object escapes to the heap.
const sink = "var mutantSink *[8]byte\n\n"

var table = []mutant{
	{
		name: "wal-stop-drain",
		file: "internal/wal/manager.go",
		old:  "\t\tm.epochs.AdvanceTo(m.epochs.Global() + 1)\n",
		new:  "",
		killers: []killer{
			{"internal/wal", "TestStopDrainsFinalEpoch"},
			{".", "TestCloseDrainsFinalEpoch"},
			{"internal/sim", "TestShutdownDrainRegression"},
			{"internal/sim", "TestSeedCorpus"},
		},
		claim: "a clean Stop makes every acknowledged commit durable: without the epoch advance the final pass publishes d = E-1 and recovery drops the last epoch",
	},
	{
		name: "client-write-per-frame",
		file: "client/client.go",
		old:  "\tif _, err := c.nc.Write(out); err != nil {\n",
		new: "\tvar err error\n\tfor rest := out; err == nil && len(rest) > 0; {\n" +
			"\t\tn := 4 + int(binary.BigEndian.Uint32(rest))\n" +
			"\t\t_, err = c.nc.Write(rest[:n])\n\t\trest = rest[n:]\n\t}\n" +
			"\tif err != nil {\n",
		killers: []killer{
			{"client", "TestLedger"},
		},
		claim: "a pipelined connection writes the frames queued behind one caller in one syscall (client writes/op 2x8)",
	},
	{
		name: "client-txn-append-growth",
		file: "client/client.go",
		old:  "\tt.ops = t.inline[:0]\n",
		new:  "",
		killers: []killer{
			{"client", "TestLedger"},
		},
		claim: "a Txn of up to four ops is one heap object (client allocs/call Txn.Exec of 4 PUTs)",
	},
	{
		name: "silo-bench-new-store",
		file: "cmd/silo-bench/experiments.go",
		old:  "func retry(ops, aborts *atomic.Uint64, attempt func() error) {\n",
		new:  "var mutantStore = core.NewStore\n\nfunc retry(ops, aborts *atomic.Uint64, attempt func() error) {\n",
		killers: []killer{
			{"cmd/silo-bench", "TestStoresOpenThroughSiloOpen"},
		},
		claim: "the harness opens every store through silo.Open",
	},
	{
		name: "btree-split-halved",
		file: "internal/btree/btree.go",
		old:  "\tif idx > 0 && idx == int(lf.hint) {\n\t\tmid = idx\n",
		new:  "\tif false && idx > 0 && idx == int(lf.hint) {\n\t\tmid = idx\n",
		killers: []killer{
			{"internal/btree", "TestLedger"},
			{"internal/btree", "TestLeafFill"},
		},
		claim: "a leaf split continuing an ascending run falls at the insertion point, so runs leave full leaves (btree leaf fill and B/key, interleaved ascending runs)",
	},
	{
		name: "btree-split-at-insert",
		file: "internal/btree/btree.go",
		old:  "\tif idx > 0 && idx == int(lf.hint) {\n\t\tmid = idx\n",
		new:  "\tif idx > 0 {\n\t\tmid = idx\n",
		killers: []killer{
			{"internal/btree", "TestLedger"},
		},
		claim: "a split not continuing a run halves the leaf (btree leaf fill and B/key, uniform random)",
	},
	{
		name: "btree-cmp-trusts-length",
		file: "internal/btree/keys.go",
		old:  "\t\treturn bytes.Compare(suffix(s.suffixAt(i)), p.tail)\n",
		new:  "\t\treturn bytes.Compare(unsafe.Slice((*byte)(unsafe.Add(s.suffixAt(i), 1)), n-inlineBytes), p.tail)\n",
		killers: []killer{
			{"internal/btree", "FuzzTreeKeys"},
		},
		claim: "an optimistic compare reads a long key's suffix by the suffix's own length, never by a length torn from it",
	},
	{
		name: "btree-append-trusts-length",
		file: "internal/btree/keys.go",
		old:  "\treturn append(append(dst, b[:]...), suffix(k.sfx)...)\n",
		new:  "\treturn append(append(dst, b[:]...), unsafe.Slice((*byte)(unsafe.Add(k.sfx, 1)), int(k.n)-inlineBytes)...)\n",
		killers: []killer{
			{"internal/btree", "FuzzTreeKeys"},
		},
		claim: "copying a long key out reads its suffix by the suffix's own length",
	},
	{
		name: "catalog-recreate-without-drop",
		file: "internal/catalog/catalog.go",
		old:  "\t\tif !c.leftBehind(rec.Name) || t.ID != rec.ID {\n",
		new:  "\t\tif t.ID != rec.ID {\n",
		killers: []killer{
			{"internal/catalog", "FuzzCatalogRecord"},
		},
		claim: "replay adopts an existing entry table only when an earlier create of the name was dropped",
	},
	{
		name: "catalog-accepts-opaque-index",
		file: "internal/catalog/record.go",
		old:  "\tif flags&flagOpaque != 0 {\n",
		new:  "\tif false && flags&flagOpaque != 0 {\n",
		killers: []killer{
			{"internal/catalog", "FuzzCatalogRecord"},
		},
		claim: "an index an earlier release declared with a Go key function is refused by name, not rebuilt wrong",
	},
	{
		name: "core-arena-class-up",
		file: "internal/core/arena.go",
		old:  "\tc := record.ClassOf(buf)\n",
		new:  "\tc := record.ClassOf(buf) + 1\n",
		killers: []killer{
			{"internal/core", "TestArenaRecyclesWithinClass"},
		},
		claim: "a freed value buffer returns to its own size class",
	},
	{
		name: "core-reap-keeps-snap-bytes",
		file: "internal/core/gc.go",
		old:  "\t\to.snapBytes.Add(-freed)\n",
		new:  "\t\t_ = freed\n",
		killers: []killer{
			{"internal/core", "TestGCFamiliesUnderLiveScrape"},
		},
		claim: "the retained snapshot bytes gauge drops by what a reap frees",
	},
	{
		name: "core-unhook-keys-from-zero",
		file: "internal/core/gc.go",
		old:  "\t\tkeyStart = it.keyEnd\n",
		new:  "",
		killers: []killer{
			{"internal/core", "TestUnhookKeysAcrossReaps"},
			{"internal/core", "TestGCFamiliesUnderLiveScrape"},
		},
		claim: "each pending unhook reads its own key from the packed key list",
	},
	{
		name: "core-abandon-trusts-attempt",
		file: "internal/core/tx.go",
		old:  "\tif reason == valid && err != ErrConflict {\n",
		new:  "\tif _ = reason; err != ErrConflict {\n",
		killers: []killer{
			{"internal/core", "TestDoomedErrorRetries"},
			{".", "TestDoomedIndexUpsertCommits"},
		},
		claim: "an error from a doomed attempt (one whose reads no longer validate) is retried as a conflict, not returned",
	},
	{
		name: "core-created-node-unindexed",
		file: "internal/core/tx.go",
		old:  "\t\t\ttx.pushNode(nodeEntry{n: ch.Node, version: ch.New, table: t.ID})\n",
		new:  "\t\t\ttx.nodes = append(tx.nodes, nodeEntry{n: ch.Node, version: ch.New, table: t.ID})\n",
		killers: []killer{
			{"internal/core", "TestDeliveryShapedReadSetAllocatesNothing"},
			{"internal/core", "TestBulkWriteSetLookups"},
		},
		claim: "a node created by the transaction's own split enters the node-set through its hash index, so a later lookup finds it",
	},
	{
		name: "core-readkey-previous",
		file: "internal/core/tx.go",
		old:  "\tif i > 0 {\n\t\tstart = tx.reads[i-1].keyEnd\n\t}\n\treturn tx.keys[start:tx.reads[i].keyEnd]\n",
		new:  "\tif i > 1 {\n\t\tstart = tx.reads[i-2].keyEnd\n\t}\n\tif i > 0 {\n\t\ti--\n\t}\n\treturn tx.keys[start:tx.reads[i].keyEnd]\n",
		killers: []killer{
			{"internal/core", "TestAbortForensicsByEntryPoint"},
		},
		claim: "an abort names the key of the read that failed validation",
	},
	{
		name: "core-panic-trusts-attempt",
		file: "internal/core/worker.go",
		old:  "\t\t\t\tif reason, _, _ := tx.validate(false); reason != valid {\n",
		new:  "\t\t\t\tif reason, _, _ := tx.validate(false); false && reason != valid {\n",
		killers: []killer{
			{"internal/core", "TestDoomedPanicRetries"},
		},
		claim: "a panic in a doomed attempt is retried as a conflict, not re-panicked",
	},
	{
		name: "epoch-advance-soon-noop",
		file: "internal/epoch/epoch.go",
		old:  "func (m *Manager) AdvanceSoon(e uint64) {\n\tif m.want.Load() >= e {\n",
		new:  "func (m *Manager) AdvanceSoon(e uint64) {\n\tif true || m.want.Load() >= e {\n",
		killers: []killer{
			{"server", "TestLedger"},
			{"internal/epoch", "TestAdvanceSoon"},
		},
		claim: "a durability waiter closes the open epoch on demand (server demand-closed epochs)",
	},
	{
		name: "epoch-advance-ignores-straggler",
		file: "internal/epoch/epoch.go",
		old:  "\tif m.minLocal(e) >= e {\n",
		new:  "\tif true {\n",
		killers: []killer{
			{"internal/sim", "TestDemandRespectsStraggler"},
		},
		claim: "the epoch never advances past a worker still active in it (E <= e_w + 1), demand or tick",
	},
	{
		name: "index-scan-alloc",
		file: "internal/index/scan.go",
		old:  "func Scan(r core.Reader, ix *Index, lo, hi []byte, max int, fn func(sk, pk, val []byte) bool) error {\n",
		new:  sink + "func Scan(r core.Reader, ix *Index, lo, hi []byte, max int, fn func(sk, pk, val []byte) bool) error {\n\tmutantSink = new([8]byte)\n",
		killers: []killer{
			{"internal/index", "TestLedger"},
		},
		claim: "a resolving index scan allocates nothing (index allocs/scan rows)",
	},
	{
		name: "index-callback-rebound",
		file: "internal/index/scan.go",
		old:  "\tif err := r.Scan(ix.Entries, lo, hi, sc.collectFn); err != nil {\n",
		new:  "\tif err := r.Scan(ix.Entries, lo, hi, sc.collect); err != nil {\n",
		killers: []killer{
			{"internal/index", "TestLedger"},
		},
		claim: "a scan hands the reader callbacks bound once on the pooled scratch, so binding allocates nothing per scan",
	},
	{
		name: "kvstore-put-no-fallback",
		file: "internal/kvstore/kvstore.go",
		old:  "\t\tif !rec.TryOverwriteLocked(value) {\n\t\t\trec.SetDataLocked(value, nil)\n\t\t}\n",
		new:  "\t\trec.TryOverwriteLocked(value)\n",
		killers: []killer{
			{"internal/partition", "TestAgainstModel"},
		},
		claim: "a Put whose value does not fit the record's buffer still stores it",
	},
	{
		name: "partition-get-part0",
		file: "internal/partition/partition.go",
		old:  "\treturn tx.tables[part][table].GetInto(buf, key)\n",
		new:  "\treturn tx.tables[0][table].GetInto(buf, key)\n",
		killers: []killer{
			{"internal/partition", "TestAgainstModel"},
		},
		claim: "a Partitioned-Store read goes to the partition it names",
	},
	{
		name: "partition-get-copies",
		file: "internal/partition/partition.go",
		old:  "\treturn tx.tables[part][table].GetInto(buf, key)\n",
		new:  "\tv := tx.tables[part][table].Get(key)\n\treturn v, v != nil\n",
		killers: []killer{
			{"internal/workload/tpcc", "TestLedger"},
		},
		claim: "a Partitioned-Store read fills the caller's buffer instead of allocating (objects per Partitioned-Store new-order)",
	},
	{
		name: "recovery-checkpoint-no-catalog-check",
		file: "internal/recovery/checkpoint.go",
		old:  "\tif cat.Name != catalog.TableName {\n",
		new:  "\tif false && cat.Name != catalog.TableName {\n",
		killers: []killer{
			{"internal/recovery", "TestCheckpointNeedsTheCatalog"},
		},
		claim: "a checkpoint is refused when table 0 is not the catalog",
	},
	{
		name: "recovery-part-rows-unordered",
		file: "internal/recovery/checkpoint.go",
		old:  "\t\t\tif bytes.Compare(prev, key) >= 0 {\n",
		new:  "\t\t\tif false && bytes.Compare(prev, key) >= 0 {\n",
		killers: []killer{
			{"internal/recovery", "FuzzCheckpointSet"},
		},
		claim: "a checkpoint part whose rows of a table do not ascend is torn",
	},
	{
		name: "recovery-part-table-resumes",
		file: "internal/recovery/checkpoint.go",
		old:  "\t\t\t\tif r.table == table {\n",
		new:  "\t\t\t\tif false && r.table == table {\n",
		killers: []killer{
			{"internal/recovery", "FuzzCheckpointSet"},
		},
		claim: "a checkpoint part holds each table's rows as one contiguous run",
	},
	{
		name: "recovery-parts-overlap",
		file: "internal/recovery/checkpoint.go",
		old:  "\t\t\t\tif last := &prior[len(prior)-1]; bytes.Compare(last.key(len(last.rows)-1), r.key(0)) >= 0 {\n",
		new:  "\t\t\t\tif last := &prior[len(prior)-1]; false && bytes.Compare(last.key(len(last.rows)-1), r.key(0)) >= 0 {\n",
		killers: []killer{
			{"internal/recovery", "FuzzCheckpointSet"},
		},
		claim: "a table's keys go on ascending from checkpoint part to part",
	},
	{
		name: "recovery-manifest-rejects-table-list",
		file: "internal/recovery/checkpoint.go",
		old:  "\tfor i := 0; i < ntables; i++ {\n",
		new:  "\tif ntables != 0 {\n\t\treturn nil, fmt.Errorf(\"%w: %s: table list\", errTorn, path)\n\t}\n\tfor i := 0; i < ntables; i++ {\n",
		killers: []killer{
			{"internal/recovery", "TestManifestTableListIsReadPast"},
		},
		claim: "a manifest with an older writer's table list is read past, not refused",
	},
	{
		name: "recovery-record-per-row",
		file: "internal/recovery/replay.go",
		old:  "\t\tr := &recs[len(out)]\n",
		new:  "\t\tr := new(record.Record)\n\t\t_ = recs\n",
		killers: []killer{
			{"internal/recovery", "TestLedger"},
		},
		claim: "replay allocates records per span, not per row (recovery allocs/entry and allocs/row rows)",
	},
	{
		name: "recovery-no-schema-check",
		file: "internal/recovery/replay.go",
		old:  "\tif opts.Schema == nil {\n",
		new:  "\tif false && opts.Schema == nil {\n",
		killers: []killer{
			{"internal/recovery", "TestRecoverNeedsTheSchema"},
		},
		claim: "Recover refuses to run without its one schema source",
	},
	{
		name: "recovery-checkpoint-released-early",
		file: "internal/recovery/replay.go",
		old:  "\tdefer ck.release()\n",
		new:  "\tck.release()\n",
		killers: []killer{
			{"internal/sim", "TestSeedCorpus"},
		},
		claim: "the mapped checkpoint parts stay mapped until their rows are installed",
	},
	{
		name: "recovery-keeps-beyond-d",
		file: "internal/recovery/replay.go",
		old:  "\tif ep > r.d {\n",
		new:  "\tif false && ep > r.d {\n",
		killers: []killer{
			{"internal/recovery", "TestReplayEquivalenceRandomLogs"},
		},
		claim: "replay skips every transaction of an epoch above the durable epoch D",
	},
	{
		name: "recovery-ignores-catalog-rows",
		file: "internal/recovery/replay.go",
		old:  "\tif table == CatalogTableID && !del {\n",
		new:  "\tif false && table == CatalogTableID && !del {\n",
		killers: []killer{
			{"internal/recovery", "TestReplayKeyShapes"},
			{"internal/recovery", "TestRecoveredTreesArePacked"},
			{"internal/recovery", "TestOneSegmentDecodesOnEveryWorker"},
		},
		claim: "replay rebuilds the schema from the catalog rows in the log",
	},
	{
		name: "recovery-radix-byte-skipped",
		file: "internal/recovery/replay.go",
		old:  "\tfor shift := 0; shift < 128; shift += 8 {\n",
		new:  "\tfor shift := 8; shift < 128; shift += 8 {\n",
		killers: []killer{
			{"internal/recovery", "TestSortWinners"},
			{"internal/recovery", "TestReplayKeyShapes"},
		},
		claim: "replay's radix sort orders winners by every byte of their 16-byte key prefix",
	},
	{
		name: "recovery-ties-unsorted",
		file: "internal/recovery/replay.go",
		old:  "\t\tif j-i > 1 {\n",
		new:  "\t\tif false && j-i > 1 {\n",
		killers: []killer{
			{"internal/recovery", "TestSortWinners"},
		},
		claim: "winners sharing a 16-byte prefix are ordered by the rest of their keys",
	},
	{
		name: "recovery-lengths-ignored-on-tie",
		file: "internal/recovery/replay.go",
		old:  "\treturn cmp.Compare(an, bn), false\n",
		new:  "\treturn 0, false\n",
		killers: []killer{
			{"internal/recovery", "TestSortWinners"},
			{"internal/recovery", "TestReplayKeyShapes"},
		},
		claim: "of two keys with equal 16-byte prefixes, one ending within them sorts first",
	},
	{
		name: "recovery-tail-compare-dropped",
		file: "internal/recovery/replay.go",
		old:  "\t\tc = bytes.Compare(ws.srcs.tail(ws.item(a)), ws.srcs.tail(ws.item(b)))\n",
		new:  "\t\tc = 0\n",
		killers: []killer{
			{"internal/recovery", "TestReplayKeyShapes"},
		},
		claim: "winners whose keys go on past 16 equal bytes are ordered by their tails",
	},
	{
		name: "vfs-map-reads-heap",
		file: "internal/vfs/map_unix.go",
		old: "\tdata, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)\n" +
			"\tif err != nil {\n\t\treturn nil, nil, &os.PathError{Op: \"mmap\", Path: path, Err: err}\n\t}\n" +
			"\treturn data, func() { syscall.Munmap(data) }, nil\n",
		new: "\tdata, err := os.ReadFile(path)\n" +
			"\tif err != nil {\n\t\treturn nil, nil, err\n\t}\n" +
			"\treturn data, func() {}, nil\n",
		killers: []killer{
			{"internal/recovery", "TestLedger"},
		},
		claim: "recovery maps the log and checkpoint files instead of reading them into the heap (recovery heapB/logB and B/row rows)",
	},
	{
		name: "wal-no-hand-back",
		file: "internal/wal/manager.go",
		old:  "\t\tif len(wl.spares) < maxSpares && cap(b) <= limit {\n",
		new:  "\t\tif false && len(wl.spares) < maxSpares && cap(b) <= limit {\n",
		killers: []killer{
			{"internal/wal", "TestLedger"},
		},
		claim: "a logger hands written buffers back, so a steady-state commit allocates nothing (wal allocs/txn group commit)",
	},
	{
		name: "wal-no-straggler-kick",
		file: "internal/wal/manager.go",
		old:  "\tif entered < e && m.demand.Load()+1 >= e && e > m.durable.Load()+1 {\n\t\twl.lg.ticker.Kick()\n\t}\n",
		new:  "\t_ = entered < e && m.demand.Load()+1 >= e && e > m.durable.Load()+1\n",
		killers: []killer{
			{"internal/wal", "TestStragglerExitWakesLogger"},
			{"internal/sim", "TestDemandRespectsStraggler"},
		},
		claim: "a straggler's exit wakes its logger when someone waits on the epoch it held back",
	},
	{
		name: "wal-deflated-as-plain",
		file: "internal/wal/manager.go",
		old:  "\t\tkind, payload = frameDeflated, deflate(payload)\n",
		new:  "\t\tpayload = deflate(payload)\n",
		killers: []killer{
			{"internal/wal", "TestCompressedRoundTrip"},
		},
		claim: "a deflated buffer is written under its own frame kind",
	},
	{
		name: "wal-walk-alloc",
		file: "internal/wal/segment.go",
		old:  "func (s Segment) Walk(v Visitor) error {\n\tfor off := 0; off < len(s.data); {\n",
		new:  sink + "func (s Segment) Walk(v Visitor) error {\n\tfor off := 0; off < len(s.data); {\n\t\tmutantSink = new([8]byte)\n",
		killers: []killer{
			{"internal/wal", "TestLedger"},
		},
		claim: "walking a segment allocates nothing per frame (wal allocs/op ScanSegment+Walk)",
	},
	{
		name: "wal-torn-frame-whole",
		file: "internal/wal/segment.go",
		old:  "\t\tv.FrameEnd(!ok)\n",
		new:  "\t\tv.FrameEnd(false)\n",
		killers: []killer{
			{"internal/wal", "FuzzWalkSegment"},
		},
		claim: "a frame whose payload does not decode is reported torn, so nothing of it is kept",
	},
	{
		name: "wal-scan-ignores-bad-range",
		file: "internal/wal/segment.go",
		old:  "\t\tif i+1 < len(ranges) && ranges[i+1].at != r.at+len(r.data) {\n",
		new:  "\t\tif false && i+1 < len(ranges) && ranges[i+1].at != r.at+len(r.data) {\n",
		killers: []killer{
			{"internal/wal", "FuzzScanSegment"},
		},
		claim: "a segment verified in parallel ends at its first bad frame, whichever range holds it",
	},
	{
		name: "wal-scan-verifies-first-range",
		file: "internal/wal/segment.go",
		old:  "\t\t\tranges[i].verify()\n",
		new:  "\t\t\tif i == 0 {\n\t\t\t\tranges[i].verify()\n\t\t\t}\n",
		killers: []killer{
			{"internal/wal", "FuzzScanSegment"},
		},
		claim: "every range of a segment is checksummed, not only the first",
	},
	{
		name: "wal-walk-offset-piece-relative",
		file: "internal/wal/segment.go",
		old:  "does not decode\", ErrCorrupt, s.at+off)\n",
		new:  "does not decode\", ErrCorrupt, off)\n",
		killers: []killer{
			{"internal/recovery", "TestUndecodableFrameFailsRecovery"},
			{".", "TestOpenFailsOnUndecodableFrame"},
		},
		claim: "an undecodable frame is reported at its offset in the file, whichever piece of the segment found it",
	},
	{
		name: "tpcc-partitioned-all-local",
		file: "internal/workload/tpcc/partition.go",
		old:  "AllLocal: in.allLocal}",
		new:  "AllLocal: 1}",
		killers: []killer{
			{"internal/workload/tpcc", "TestStoresRunOneNewOrder"},
		},
		claim: "a Partitioned-Store new-order records whether all its items were local, as the Silo stores do",
	},
	{
		name: "ycsb-drops-read-buffer",
		file: "internal/workload/ycsb/ycsb.go",
		old:  "\t\ts.val = v[:0]\n",
		new:  "",
		killers: []killer{
			{"internal/workload/ycsb", "TestRunSiloOpAllocsFlatInValueSize"},
		},
		claim: "an embedded YCSB op keeps its grown read buffer, so it allocates nothing at any value size",
	},
	{
		name: "server-no-window-wait",
		file: "server/conn.go",
		old:  "\t\twin.wait(int64(s.opts.Pipeline))\n",
		new:  "",
		killers: []killer{
			{"server", "TestReaderStopsAtPipeline"},
		},
		claim: "a connection's reader runs at most Options.Pipeline requests ahead of its writer",
	},
	{
		name: "server-depth-per-chain",
		file: "server/conn.go",
		old:  "\t\tfor d := depth - int64(ch.n) + 1; d <= depth; d++ {\n\t\t\ts.obs.depth.Observe(uint64(d))\n\t\t}\n",
		new:  "\t\ts.obs.depth.Observe(uint64(depth))\n",
		killers: []killer{
			{"server", "TestPipelineDepthCountsRequests"},
		},
		claim: "the pipeline-depth histogram takes one observation per request, not per chain",
	},
	{
		name: "server-runjob-alloc",
		file: "server/exec.go",
		old:  "func (s *Server) runJob(st *execState, c *chain, j *job, start time.Time) time.Time {\n\to := s.wobs[st.w]\n",
		new:  sink + "func (s *Server) runJob(st *execState, c *chain, j *job, start time.Time) time.Time {\n\tmutantSink = new([8]byte)\n\to := s.wobs[st.w]\n",
		killers: []killer{
			{"server", "TestLedger"},
		},
		claim: "the server executes a request without a heap allocation (server allocs/op rows)",
	},
}
