package core

import (
	"sync/atomic"

	"silo/internal/epoch"
	"silo/internal/obs"
	"silo/internal/trace"
)

// abortReason says why a transaction aborted. Its values index the abort
// counters and trace.AbortReasonNames, the flight recorder's vocabulary,
// which labels the counters too, so metrics and abort events can never
// disagree on names. The first two are Phase 2's read-set and node-set
// validation; hook-poisoned covers transactions whose WriteHook failed,
// explicit covers Abort calls and errors fn returned from a consistent
// view, epoch-full covers commits that found no TID left in their epoch
// (they retry in the next one), and doomed covers attempts whose error or
// panic came from reads that do not validate (see Tx.abandon).
type abortReason int

const (
	abortReadValidation abortReason = iota
	abortNodeValidation
	abortHookPoisoned
	abortExplicit
	abortEpochFull
	abortDoomed

	valid abortReason = -1 // validate found no conflict
)

// Commit phases for the sampled latency histograms.
const (
	obsPhaseLock     = iota // Phase 1: sort + lock write-set
	obsPhaseValidate        // Phase 2: read/node-set validation + TID choice
	obsPhaseInstall         // Phase 3: install, unlock, log handoff
	numObsPhases
)

// ObsPhaseNames are the label values for the commit-phase histograms.
var ObsPhaseNames = [numObsPhases]string{"lock", "validate", "install"}

// phaseSampleInterval is the commit sampling period for phase timings:
// every 64th commit per worker pays four clock reads; the other 63 pay
// one increment and a mask test. Keeping the clock off most commits is
// what holds instrumented throughput within the ≤2% budget.
const phaseSampleInterval = 64

// tableObs is one table's read/write counters within one worker's
// shard. Entries are pointers so the shard slice can grow (first touch
// of a newly created table) without copying atomic cells.
type tableObs struct {
	reads  obs.Counter
	writes obs.Counter
}

// workerObs is a worker's observability shard and the engine's only
// counter surface: CollectObs sums the shards, and nothing else reads a
// count. Exactly one goroutine (the worker's) records into it, both on the
// transaction path and in the garbage collector it runs between requests;
// snapshots read every cell atomically, so a live scrape during a hammer
// run is race-clean without a single lock or fence on the commit path.
type workerObs struct {
	commits obs.Counter
	aborts  [len(trace.AbortReasonNames)]obs.Counter
	phase   [numObsPhases]obs.Histogram
	nodeset obs.Histogram // node-set length at commit, sampled with the phases

	// The garbage collector's (§4.8–4.9): snapshot versions registered and
	// reaped, the bytes the unreaped ones hold (§5.6's space overhead;
	// never negative, as only the registering worker reaps), and absent
	// records unhooked or skipped because a later write superseded them.
	snapCreated    obs.Counter
	snapReaped     obs.Counter
	snapBytes      obs.Gauge
	unhooksDone    obs.Counter
	unhooksSkipped obs.Counter

	tick   uint64 // owner-only sampling counter, never read by snapshots
	tables atomic.Pointer[[]*tableObs]
}

// table returns the owner's counter cell for table id, growing the
// shard on first touch of a new table (the only allocation obs ever
// does on a transaction path, once per worker per table).
func (o *workerObs) table(id uint32) *tableObs {
	cur := o.tables.Load()
	if cur != nil && int(id) < len(*cur) {
		return (*cur)[id]
	}
	var next []*tableObs
	if cur != nil {
		next = append(next, *cur...)
	}
	for len(next) <= int(id) {
		next = append(next, &tableObs{})
	}
	o.tables.Store(&next)
	return next[id]
}

// tableTally is a transaction-local read/write count for one table.
// Tallying is a pointer compare and a plain increment; the atomic adds
// into the worker shard happen once per touched table when the
// transaction finishes, keeping per-operation cost off the hot path.
type tableTally struct {
	t      *Table
	reads  uint32
	writes uint32
}

func (tx *Tx) tallySlot(t *Table) *tableTally {
	for i := range tx.tally {
		if tx.tally[i].t == t {
			return &tx.tally[i]
		}
	}
	tx.tally = append(tx.tally, tableTally{t: t})
	return &tx.tally[len(tx.tally)-1]
}

// tallyRead counts one value read from t.
func (tx *Tx) tallyRead(t *Table) { tx.tallySlot(t).reads++ }

// tallyWrite counts one staged write to t.
func (tx *Tx) tallyWrite(t *Table) { tx.tallySlot(t).writes++ }

// flushTally folds the transaction's per-table counts into the worker
// shard: two atomic adds per touched table. The engine-wide read/write
// totals are derived from the table cells at collection time, so the
// commit path pays nothing for them.
func (tx *Tx) flushTally() {
	o := tx.w.obs
	for i := range tx.tally {
		e := &tx.tally[i]
		cell := o.table(e.t.ID)
		if e.reads > 0 {
			cell.reads.Add(uint64(e.reads))
		}
		if e.writes > 0 {
			cell.writes.Add(uint64(e.writes))
		}
	}
	tx.tally = tx.tally[:0]
}

// obsShards returns every live shard: application workers plus the
// hidden maintenance and DDL workers (whose catalog commits and
// checkpoint transactions should not vanish from monitoring).
func (s *Store) obsShards() []*workerObs {
	shards := make([]*workerObs, 0, len(s.workers)+2)
	for _, w := range s.workers {
		shards = append(shards, w.obs)
	}
	return append(shards, s.maint.obs, s.ddl.obs)
}

// CollectObs appends the engine's metric families to snap: commit and
// abort-reason totals, per-table read/write counters and tree shape,
// sampled commit-phase latency and node-set length histograms (1 in 64
// commits per worker), the garbage collector's snapshot versions, retained
// bytes and unhooks, the current global/snapshot epochs, and the advancing
// thread's advances by cause (tick or demand). Safe to call while workers
// run; the result is a racy-but-race-clean monitoring view, not a
// consistent cut. Each shard's reaped count is read before its created
// count, so a scrape never shows more versions reaped than created.
func (s *Store) CollectObs(snap *obs.Snapshot) {
	shards := s.obsShards()

	var commits uint64
	var aborts [len(trace.AbortReasonNames)]uint64
	var reads, writes uint64
	var phase [numObsPhases]obs.HistSnapshot
	var nodeset obs.HistSnapshot
	var reaped, created, retained, unhooked, skipped uint64
	for _, o := range shards {
		reaped += o.snapReaped.Load()
		created += o.snapCreated.Load()
		retained += o.snapBytes.Load()
		unhooked += o.unhooksDone.Load()
		skipped += o.unhooksSkipped.Load()
		commits += o.commits.Load()
		for i := range aborts {
			aborts[i] += o.aborts[i].Load()
		}
		if cur := o.tables.Load(); cur != nil {
			for _, cell := range *cur {
				reads += cell.reads.Load()
				writes += cell.writes.Load()
			}
		}
		for i := range phase {
			phase[i].Merge(o.phase[i].Snapshot())
		}
		nodeset.Merge(o.nodeset.Snapshot())
	}
	snap.Counter("silo_core_commits_total", "", "", commits)
	for i, n := range aborts {
		snap.Counter("silo_core_aborts_total", "reason", trace.AbortReasonNames[i], n)
	}
	snap.Counter("silo_core_reads_total", "", "", reads)
	snap.Counter("silo_core_writes_total", "", "", writes)
	for i := range phase {
		snap.Histogram("silo_core_commit_phase_ns", "phase", ObsPhaseNames[i], phase[i])
	}
	snap.Histogram("silo_core_nodeset_len", "", "", nodeset)
	snap.Counter("silo_core_snapshot_versions_total", "event", "created", created)
	snap.Counter("silo_core_snapshot_versions_total", "event", "reaped", reaped)
	snap.Gauge("silo_core_snapshot_bytes_retained", "", "", retained)
	snap.Counter("silo_core_unhooks_total", "result", "done", unhooked)
	snap.Counter("silo_core_unhooks_total", "result", "skipped", skipped)

	for _, t := range s.Tables() {
		var tr, tw uint64
		for _, o := range shards {
			if cur := o.tables.Load(); cur != nil && int(t.ID) < len(*cur) {
				tr += (*cur)[t.ID].reads.Load()
				tw += (*cur)[t.ID].writes.Load()
			}
		}
		snap.Counter("silo_table_reads_total", "table", t.Name, tr)
		snap.Counter("silo_table_writes_total", "table", t.Name, tw)
		sh := t.Tree.Shape()
		snap.Gauge("silo_table_leaves", "table", t.Name, uint64(sh.Leaves))
		snap.Gauge("silo_table_empty_leaves", "table", t.Name, uint64(sh.EmptyLeaves))
		snap.Gauge("silo_table_height", "table", t.Name, uint64(sh.Height))
		snap.Gauge("silo_table_leaf_fill_permille", "table", t.Name, uint64(1000*sh.Fill()))
	}

	snap.Gauge("silo_core_epoch", "", "", s.epochs.Global())
	snap.Gauge("silo_core_snapshot_epoch", "", "", s.epochs.SnapshotGlobal())
	for cause, name := range epoch.CauseNames {
		snap.Counter("silo_epoch_advances_total", "cause", name, s.epochs.AdvancesBy(cause))
	}
}
