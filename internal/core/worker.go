package core

import (
	"time"

	"silo/internal/epoch"
	"silo/internal/tid"
	"silo/internal/trace"
)

// Worker is a per-"core" execution context: it owns a TID generator, an
// epoch slot, garbage lists, an arena, and a reusable transaction. A worker
// runs one transaction at a time; distinct workers run concurrently and
// share the whole database.
type Worker struct {
	id     int
	store  *Store
	slot   *epoch.Slot
	gen    tid.Generator
	gc     gcState
	arena  arena
	obs    *workerObs  // observability shard (see obs.go)
	ring   *trace.Ring // flight-recorder shard
	logFn  LogFunc
	exitFn ExitFunc

	tx   Tx     // reusable transaction
	stx  SnapTx // reusable snapshot transaction
	wbuf []LoggedWrite
}

func newWorker(s *Store, id int) *Worker {
	w := &Worker{
		id:    id,
		store: s,
		slot:  s.epochs.Slot(id),
		obs:   &workerObs{},
		ring:  s.flight.NewRing(uint8(id), trace.DefaultRingEvents),
	}
	w.tx.w = w
	w.stx.w = w
	return w
}

// ID returns the worker's index.
func (w *Worker) ID() int { return w.id }

// Store returns the owning store.
func (w *Worker) Store() *Store { return w.store }

// SetLogFunc installs the durability hook invoked after every commit. It
// must be set before the worker runs transactions.
func (w *Worker) SetLogFunc(fn LogFunc) { w.logFn = fn }

// SetExitFunc installs the hook invoked after every transaction ends. It
// must be set before the worker runs transactions.
func (w *Worker) SetExitFunc(fn ExitFunc) { w.exitFn = fn }

// LastCommitTID returns the pure TID of the worker's most recent commit.
func (w *Worker) LastCommitTID() uint64 { return w.gen.Last() }

// Begin starts a read/write transaction on this worker. The returned
// transaction is owned by the worker and is reset by Commit/Abort; at most
// one may be active per worker.
func (w *Worker) Begin() *Tx {
	tx := &w.tx
	if tx.active {
		panic("core: worker already has an active transaction")
	}
	tx.reset()
	tx.epoch = w.slot.Enter(w.store.epochs)
	tx.active = true
	return tx
}

// BeginSnapshot starts a read-only snapshot transaction (§4.9). Snapshot
// transactions read a recent consistent snapshot, never block writers, and
// never abort.
func (w *Worker) BeginSnapshot() *SnapTx {
	stx := &w.stx
	if stx.active {
		panic("core: worker already has an active snapshot transaction")
	}
	w.slot.Enter(w.store.epochs)
	stx.sew = w.slot.SnapshotLocal()
	stx.active = true
	return stx
}

// Run executes fn inside a transaction, committing on nil return, and
// retries the attempt whenever it ends in ErrConflict — a failed commit
// validation, or a doomed attempt (see RunOnce). It is the common way to
// run one-shot requests.
func (w *Worker) Run(fn func(tx *Tx) error) error { return w.run(fn, nil, true) }

// RunOnce is one attempt of Run; conflicts surface as ErrConflict.
// Benchmarks use it to count aborts explicitly. An error from fn (or a
// write hook) is returned only if the reads it came from validate;
// otherwise the attempt was doomed and ends as ErrConflict. A doomed
// attempt's panic ends the same way; any other aborts the transaction,
// leaving the worker usable, and continues with the original value.
func (w *Worker) RunOnce(fn func(tx *Tx) error) error { return w.run(fn, nil, false) }

// RunTraced is Run with span capture: statement execution time
// accumulates into sp.Exec across attempts, sp.Retries counts the
// conflicts, and every commit times its phases into sp.Validate and sp.Log.
func (w *Worker) RunTraced(fn func(tx *Tx) error, sp *trace.Spans) error {
	return w.run(fn, sp, true)
}

// run is the one transaction loop: Begin, fn (timed when traced), then the
// epilogue — Commit on nil, abandon otherwise — again on ErrConflict when
// retry is set.
func (w *Worker) run(fn func(tx *Tx) error, sp *trace.Spans, retry bool) error {
	for {
		tx := w.Begin()
		tx.spans = sp
		var start time.Duration
		if sp != nil {
			start = w.store.now()
		}
		err := tx.call(fn)
		if sp != nil {
			sp.Exec += w.store.now() - start
		}
		if err == nil {
			err = tx.Commit()
		} else {
			err = tx.abandon(err)
		}
		if err != ErrConflict || !retry {
			return err
		}
		if sp != nil {
			sp.Retries++
		}
	}
}

// call runs fn on tx and settles a panic in it: a still-active transaction
// whose reads do not validate was doomed, and the panic becomes
// ErrConflict for the epilogue; any other is aborted and the panic
// continues, from here so its trace keeps fn's frames.
func (tx *Tx) call(fn func(tx *Tx) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if tx.active {
				if reason, _, _ := tx.validate(false); reason != valid {
					err = ErrConflict
					return
				}
				tx.Abort()
			}
			panic(p)
		}
	}()
	return fn(tx)
}

// RunSnapshot executes fn inside a snapshot transaction. Snapshot
// transactions commit without checking and never abort.
func (w *Worker) RunSnapshot(fn func(stx *SnapTx) error) error {
	stx := w.BeginSnapshot()
	err := fn(stx)
	stx.finish()
	return err
}

// finishTx is the common epilogue for commit and abort: quiesce the epoch
// slot, tell the exit hook the epoch the transaction held, and let the garbage collector run between requests (§4.8: reaping in
// the workers avoids helper threads and cross-core data movement).
//
// The transaction's key arena, read-set and node-set stay with the worker
// for the next one up to their bounds (maxKeyArena, maxReadSet,
// maxNodeSet); a set that held more than its bound is given back, so one
// wide scan does not pin its sets to the worker. The test is on what the
// set held, not on its capacity: append rounds a set's growth up, so a set
// that filled exactly its bound has more room than that, and giving it
// back made every transaction of that size grow it again.
func (w *Worker) finishTx() {
	entered := w.slot.Local()
	w.slot.Exit()
	if w.exitFn != nil {
		w.exitFn(entered)
	}
	if tx := &w.tx; !tx.active {
		if len(tx.keys) > maxKeyArena {
			tx.keys = nil
		}
		if len(tx.reads) > maxReadSet {
			tx.reads = nil
		}
		if len(tx.nodes) > maxNodeSet {
			tx.nodes, tx.nidx = nil, nil
		}
	}
	if w.store.opts.GC {
		w.gc.reap(w)
	}
}

// NodeSetLen is the node-set size, in leaves, of the worker's last
// transaction (a census figure: the set is kept until the next one
// begins).
func (w *Worker) NodeSetLen() int { return len(w.tx.nodes) }

// RefreshEpoch re-reads the global epoch into the worker's slot. Workers
// running very long transactions should call it periodically so the
// epoch-advancing thread is not held back (§4.1).
func (w *Worker) RefreshEpoch() { w.slot.Refresh(w.store.epochs) }
