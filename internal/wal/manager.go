package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"silo/internal/core"
	"silo/internal/epoch"
	"silo/internal/tid"
	"silo/internal/trace"
	"silo/internal/vfs"
)

// Config parameterizes the durability subsystem.
type Config struct {
	// Dir is where log files live (log.0 … log.N−1, one per logger).
	Dir string
	// Loggers is the number of logger threads; workers are assigned
	// round-robin (the paper uses 4 loggers for 32 workers). Default 1.
	Loggers int
	// BufferBytes is the size at which a worker closes its buffer for
	// the logger's next pass. Default 64 KiB.
	BufferBytes int
	// PollInterval is the logger loop period. Default 5 ms.
	PollInterval time.Duration
	// Sync issues an fsync after each logger iteration that wrote data.
	Sync bool
	// TIDOnly logs each transaction's TID and none of the records it
	// modified ("+SmallRecs" where the full record is "+FullRecs"): an upper
	// bound on any logging scheme's performance. Recovery is impossible.
	TIDOnly bool
	// Compress DEFLATE-compresses each buffer frame's payload before
	// writing ("+Compress"; the paper used LZ4). It is a write-side choice
	// only: deflated frames carry their own frame kind, so readers need not
	// be told, and it may change between runs over one directory.
	Compress bool
	// SegmentBytes rotates a logger to a fresh segment (log.<id>.<seq>)
	// once its current segment exceeds this size. Rotation is what makes
	// live log truncation possible: closed segments are immutable, so a
	// checkpoint daemon can delete the fully-covered ones while loggers
	// keep appending to their open segments (TruncateCovered). 0 disables
	// rotation (each logger writes a single log.<id> forever).
	SegmentBytes int64

	// FS is the filesystem the loggers write through; nil means the real
	// one. Clock drives the logger poll loop; nil means real time. The
	// simulation harness (internal/sim) substitutes both to explore crash
	// interleavings deterministically; its in-memory FS alone is the paper's
	// Silo+tmpfs configuration (logging overhead without device overhead,
	// Figure 7).
	FS    vfs.FS
	Clock vfs.Clock

	// LegacyStopDrain reverts Stop to its pre-fix behavior: run the final
	// pass without advancing the epoch first, so the final durable frame
	// publishes d = E−1 and a clean shutdown loses the last epoch's
	// commits. It exists only so the simulation harness's pinned
	// regression seed keeps reproducing the historical bug; never set it.
	LegacyStopDrain bool
}

func (c *Config) fill() {
	if c.Loggers <= 0 {
		c.Loggers = 1
	}
	if c.BufferBytes <= 0 {
		c.BufferBytes = 64 << 10
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 5 * time.Millisecond
	}
	c.FS = vfs.DefaultFS(c.FS)
	c.Clock = vfs.DefaultClock(c.Clock)
}

// Manager wires workers to loggers and tracks the global durable epoch D.
type Manager struct {
	cfg     Config
	epochs  *epoch.Manager
	flight  *trace.Recorder // the store's flight recorder
	loggers []*logger
	byWkr   []*WorkerLog

	durable atomic.Uint64 // D = min d_l
	// demand is the largest epoch a WaitDurable caller waits to see
	// durable. See closeIfDemanded.
	demand atomic.Uint64
	dmu    sync.Mutex
	dcond  *sync.Cond
	// stopped marks Stop's final drain done: every committed epoch is as
	// durable as it will get, so no waiter waits any longer. Guarded by dmu.
	stopped bool

	// segEpochs caches each closed segment's maximum transaction epoch
	// (closed segments are immutable), so repeated TruncateCovered calls
	// from the checkpoint daemon do not re-read not-yet-covered segments
	// on every tick. Guarded by segMu.
	segMu     sync.Mutex
	segEpochs map[string]maxEpoch

	stopOnce sync.Once

	obs managerObs
}

// Attach creates a durability manager for the store and installs a LogFunc
// on every worker. Call Start to launch logger threads and Stop to drain
// and halt them.
func Attach(s *core.Store, cfg Config) (*Manager, error) {
	cfg.fill()
	m := &Manager{cfg: cfg, epochs: s.Epochs(), flight: s.Flight()}
	m.dcond = sync.NewCond(&m.dmu)
	for i := 0; i < cfg.Loggers; i++ {
		lg, err := newLogger(m, i)
		if err != nil {
			return nil, err
		}
		m.loggers = append(m.loggers, lg)
	}
	m.byWkr = make([]*WorkerLog, s.Workers())
	for i := 0; i < s.Workers(); i++ {
		lg := m.loggers[i%cfg.Loggers]
		wl := newWorkerLog(m, lg, i)
		lg.workers = append(lg.workers, wl)
		m.byWkr[i] = wl
		s.Worker(i).SetLogFunc(wl.onCommit)
	}
	// The hidden DDL worker logs through logger 0 like any worker: catalog
	// records are ordinary transactional writes, so schema changes share
	// the epoch-prefix durability guarantee of the data they precede (a
	// durable data write implies its table's earlier create record is
	// durable too — same epoch order, same D).
	ddl := newWorkerLog(m, m.loggers[0], s.Workers()+1)
	m.loggers[0].workers = append(m.loggers[0].workers, ddl)
	s.DDL().SetLogFunc(ddl.onCommit)
	return m, nil
}

// Start launches the logger loops (clock tickers at PollInterval) and has
// every epoch advance wake them: the pass that makes a closed epoch durable
// then starts as soon as the epoch closes, not up to PollInterval later.
func (m *Manager) Start() {
	for _, lg := range m.loggers {
		lg.ticker = m.cfg.Clock.Ticker(m.cfg.PollInterval, lg.iterate)
	}
	m.epochs.OnAdvance(func() {
		for _, lg := range m.loggers {
			lg.ticker.Kick()
		}
	})
}

// Stop drains and halts logging (callers must have quiesced the workers):
// it advances the epoch once and runs a final durable pass on every logger,
// which takes every worker's buffers, before syncing and closing the files.
//
// The epoch advance is what makes a clean shutdown lose nothing: a logger
// pass can only publish d = E−1 (transactions of the current epoch E may
// still be uncommitted mid-pass in general), so without it the final pass
// would write the last epoch's buffers to disk yet leave D one short, and
// recovery's epoch ≤ D filter would discard exactly those commits. With
// the workers quiescent the bump is safe, and the final pass then covers
// every acknowledged commit: D ends at the last committed epoch.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() {
		if !m.cfg.LegacyStopDrain {
			m.epochs.AdvanceTo(m.epochs.Global() + 1)
		}
		for _, lg := range m.loggers {
			if lg.ticker != nil {
				lg.ticker.Stop()
			}
			lg.iterate()
			lg.syncFile()
			lg.file.Close()
		}
		// Release every waiter after the final pass: D now covers every
		// committed epoch (the advance above plus the final iterate), and
		// an epoch above it — one read from E during the drain — will
		// never be made durable by anyone.
		m.dmu.Lock()
		m.stopped = true
		m.dcond.Broadcast()
		m.dmu.Unlock()
	})
}

// WorkerLog returns worker i's log handle.
func (m *Manager) WorkerLog(i int) *WorkerLog { return m.byWkr[i] }

// RequestRotate asks every logger to rotate its open segment at the next
// opportunity (right after its next durable-frame write), regardless of
// size. The checkpoint daemon calls this after each successful checkpoint
// so the open segment's pre-checkpoint prefix lands in a closed — and
// therefore truncatable — segment, tightening the log-space bound from
// "checkpoint interval + whatever the open segment accumulated" to
// roughly one checkpoint interval of writes. Segments holding no buffer
// frames are not rotated (nothing to truncate). It is asynchronous: the
// rotation happens on each logger's own goroutine.
func (m *Manager) RequestRotate() {
	for _, lg := range m.loggers {
		lg.rotateReq.Store(true)
	}
}

// DurableEpoch returns the global durable epoch D.
func (m *Manager) DurableEpoch() uint64 { return m.durable.Load() }

// WaitDurable blocks until D ≥ e: the moment a transaction that committed
// in epoch e may be released to its client (§4.10). The wait is demand:
// if e is the open epoch it is closed as soon as the epochs before it are
// durable, so the wait costs about one fsync pass, not one epoch interval.
// Every publish of D wakes it. It also returns once Stop's final drain has
// run, whatever e is.
func (m *Manager) WaitDurable(e uint64) {
	if m.durable.Load() >= e {
		return
	}
	m.raiseDemand(e)
	m.dmu.Lock()
	for m.durable.Load() < e && !m.stopped {
		m.dcond.Wait()
	}
	m.dmu.Unlock()
}

// raiseDemand records that someone waits for epoch e to become durable.
func (m *Manager) raiseDemand(e uint64) {
	for {
		cur := m.demand.Load()
		if e <= cur {
			break
		}
		if m.demand.CompareAndSwap(cur, e) {
			break
		}
	}
	m.closeIfDemanded()
}

// closeIfDemanded is the demand rule. A waiter can be released only once
// its epoch is durable, and a logger pass makes an epoch durable only once
// the epoch is closed (a pass publishes at most E−1), so when someone waits
// for the open epoch E (demand ≥ E) there is no point leaving it open for
// the rest of its interval: ask the epoch thread to close it now — but
// only once every earlier epoch is durable (D ≥ E−1). That last condition
// makes the rule self-clocking: at most one early-closed epoch waits for
// its fsync at a time, so the epoch rate follows the fsync rate and needs
// no knob of its own, and an idle, read-only or immediate-ack system never
// advances early at all.
//
// It is checked wherever it can become true: when demand rises, and at
// the end of every logger pass — after the pass has published D, and
// again after a pass that could not, because a straggler kept the epoch
// thread from advancing (it retries then at every pass until the
// straggler refreshes).
func (m *Manager) closeIfDemanded() {
	e := m.epochs.Global()
	if m.demand.Load() >= e && m.durable.Load()+1 >= e {
		m.epochs.AdvanceSoon(e)
	}
}

// publishDurable recomputes D after a logger advanced its d_l.
func (m *Manager) publishDurable() {
	min := ^uint64(0)
	for _, lg := range m.loggers {
		if d := lg.dl.Load(); d < min {
			min = d
		}
	}
	if min == ^uint64(0) {
		return
	}
	for {
		cur := m.durable.Load()
		if min <= cur {
			return
		}
		if m.durable.CompareAndSwap(cur, min) {
			m.dmu.Lock()
			m.dcond.Broadcast()
			m.dmu.Unlock()
			return
		}
	}
}

// WorkerLog is the worker-side logging state: the open buffer, and the
// buffers closed since the logger's last pass (at an epoch change, when
// full, or by Flush). The worker appends under mu; the logger's pass takes
// the closed buffers and the open one under the same mu, in one critical
// section, so that pass is the only way a buffer reaches the log, and
// group commit stays live without worker cooperation.
type WorkerLog struct {
	m      *Manager
	lg     *logger
	id     int
	mu     sync.Mutex
	buf    []byte
	bufEp  uint64        // epoch of the txns in buf (all equal), 0 if empty
	closed [][]byte      // closed buffers, oldest first, awaiting the next pass
	txns   atomic.Uint64 // transactions appended; loggers diff it per durable pass
	// epoch is the epoch of the worker's newest commit (worker goroutine
	// only), so the demand bookkeeping runs once per epoch, not per commit.
	epoch uint64
}

func newWorkerLog(m *Manager, lg *logger, id int) *WorkerLog {
	return &WorkerLog{m: m, lg: lg, id: id}
}

// onCommit is installed as the worker's core.LogFunc. It runs on the worker
// goroutine immediately after Phase 3.
func (wl *WorkerLog) onCommit(commit tid.Word, writes []core.LoggedWrite) {
	e := commit.Epoch()
	if wl.m.cfg.TIDOnly {
		writes = nil
	}
	wl.mu.Lock()
	// A new epoch closes the open buffer first, so buffered transactions
	// always share one epoch.
	if wl.bufEp != e {
		wl.closeLocked()
	}
	wl.buf = appendTxn(wl.buf, commit.TID(), writes)
	wl.bufEp = e
	// Counted under mu so a logger pass that took this worker's buffers
	// (take also holds mu) has observed every counted transaction's bytes.
	wl.txns.Add(1)
	if len(wl.buf) >= wl.m.cfg.BufferBytes {
		wl.closeLocked()
	}
	wl.mu.Unlock()
	if e > wl.epoch {
		wl.epoch = e
		wl.firstInEpoch(e)
	}
}

// firstInEpoch runs on the worker's first commit in epoch e. If the worker
// entered this transaction before e opened, it was active through the
// advance: every logger pass since then had to stop d_l below its entry
// epoch, so epoch e−1 cannot have become durable through its logger. Its
// commit is the moment that bound lifts (the worker leaves its slot right
// after), so when someone waits for e−1 it wakes its logger now instead of
// leaving the epoch to the next poll.
func (wl *WorkerLog) firstInEpoch(e uint64) {
	m := wl.m
	if m.demand.Load()+1 >= e && m.durable.Load()+1 < e && m.epochs.Slot(wl.id).Local() < e {
		wl.lg.ticker.Kick()
	}
}

// closeLocked moves the open buffer, if any, onto the closed list. Caller
// holds mu.
func (wl *WorkerLog) closeLocked() {
	if len(wl.buf) > 0 {
		wl.closed = append(wl.closed, wl.buf)
	}
	wl.buf = nil
	wl.bufEp = 0
}

// Flush closes the open buffer onto the closed list; the logger's next
// pass takes it with the rest. It never runs a pass. Safe from any
// goroutine.
func (wl *WorkerLog) Flush() {
	wl.mu.Lock()
	wl.closeLocked()
	wl.mu.Unlock()
}

// take appends the worker's closed buffers and its open one to bufs, in
// append order, and leaves the worker with none (logger side).
func (wl *WorkerLog) take(bufs [][]byte) [][]byte {
	wl.mu.Lock()
	wl.closeLocked()
	bufs = append(bufs, wl.closed...)
	clear(wl.closed)
	wl.closed = wl.closed[:0]
	wl.mu.Unlock()
	return bufs
}

// logger owns one log file (or chain of segments) and a disjoint set of
// workers.
type logger struct {
	m       *Manager
	id      int
	workers []*WorkerLog
	file    vfs.File
	dl      atomic.Uint64
	ticker  vfs.Ticker
	wrote   bool
	ring    *trace.Ring // flight-recorder shard

	// seq is the open segment's sequence number; segments below it are
	// closed and immutable (TruncateCovered reads this from other
	// goroutines). segBytes is the open segment's size and segHasData
	// whether it holds any buffer frames; both touched only by the logger
	// goroutine.
	seq        atomic.Uint64
	segBytes   int64
	segHasData bool

	// rotateReq is set by Manager.RequestRotate (checkpoint-triggered
	// rotation); the logger goroutine honours and clears it after its next
	// durable-frame write.
	rotateReq atomic.Bool

	// passBytes accumulates bytes appended during the current pass (logger
	// goroutine only); lastTxns remembers the worker txn total at the last
	// durable publish, so each publish observes its group-commit batch.
	passBytes int64
	lastTxns  uint64
	// bufs holds one worker's buffers during a pass (logger goroutine
	// only), reused so a pass allocates nothing.
	bufs [][]byte
}

// syncFile is the instrumented fsync: every durability-critical Sync
// goes through here so the fsync latency histogram sees them all, and
// the flight recorder logs one EvFsync per sync (A = bytes appended in
// the current pass). All callers run on the logger goroutine (iterate,
// rotation, and Stop after the ticker has halted), so the single-writer
// ring discipline holds.
//
// A failed fsync is fail-stop, exactly like a failed log write: the kernel
// may have dropped the dirty pages it could not write and marked them
// clean, so a retry on the same descriptor can report success for data
// that never reached the disk. Panicking before d_l is published means no
// epoch covered only by the failed fsync is ever reported durable.
func (lg *logger) syncFile() {
	t0 := time.Now()
	if err := lg.file.Sync(); err != nil {
		panic(fmt.Sprintf("wal: log fsync failed: %v", err))
	}
	lg.m.obs.fsync.ObserveDuration(time.Since(t0).Nanoseconds())
	lg.ring.Record(trace.EvFsync, uint16(lg.id), 0, uint64(lg.passBytes), nil)
}

// SegmentName returns the file name of logger id's segment seq: the first
// segment is plain log.<id> (the pre-rotation format), later ones
// log.<id>.<seq>.
func SegmentName(id int, seq uint64) string {
	if seq == 0 {
		return fmt.Sprintf("log.%d", id)
	}
	return fmt.Sprintf("log.%d.%d", id, seq)
}

func newLogger(m *Manager, id int) (*logger, error) {
	lg := &logger{m: m, id: id}
	lg.ring = m.flight.NewRing(uint8(id), trace.DefaultRingEvents)
	if m.cfg.Dir == "" {
		return nil, fmt.Errorf("wal: Config.Dir required")
	}
	fs := m.cfg.FS
	if err := fs.MkdirAll(m.cfg.Dir); err != nil {
		return nil, err
	}
	// Continue the newest existing segment: post-recovery logging appends
	// to the recovered files (the epoch counter restarts above D, so
	// appended TIDs and durable bounds sort after recovered ones).
	seq := uint64(0)
	infos, err := ListLogFiles(fs, m.cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, fi := range infos {
		if fi.Logger == id && fi.Seq > seq {
			seq = fi.Seq
		}
	}
	f, size, err := fs.OpenAppend(filepath.Join(m.cfg.Dir, SegmentName(id, seq)))
	if err != nil {
		return nil, err
	}
	lg.segBytes = size
	lg.segHasData = size > 0
	lg.seq.Store(seq)
	lg.file = f
	if m.cfg.Sync {
		// Make the segment's directory entry durable: fsyncing the file
		// alone does not survive a crash that reorders the creation of the
		// file itself (the simulation harness's "reordered segment
		// visibility" fault).
		if err := fs.SyncDir(m.cfg.Dir); err != nil {
			return nil, err
		}
	}
	return lg, nil
}

// maybeRotate closes the open segment and starts the next one when it has
// outgrown Config.SegmentBytes. The fresh segment immediately receives a
// durable frame carrying d_l forward, so every segment on disk ends up
// holding at least one durable frame — recovery's per-logger durable bound
// never regresses when older segments are truncated away.
func (lg *logger) maybeRotate() {
	// Segments holding only durable frames never rotate: an idle logger
	// would otherwise slowly churn out empty segments (this also makes a
	// pending rotation request a no-op until there is data worth closing).
	if !lg.segHasData {
		return
	}
	forced := lg.rotateReq.Load()
	if !forced && (lg.m.cfg.SegmentBytes <= 0 || lg.segBytes < lg.m.cfg.SegmentBytes) {
		return
	}
	lg.rotateReq.Store(false)
	lg.syncFile()
	lg.file.Close()
	next := lg.seq.Load() + 1
	f, _, err := lg.m.cfg.FS.OpenAppend(filepath.Join(lg.m.cfg.Dir, SegmentName(lg.id, next)))
	if err != nil {
		panic(fmt.Sprintf("wal: segment rotation failed: %v", err))
	}
	if lg.m.cfg.Sync {
		if err := lg.m.cfg.FS.SyncDir(lg.m.cfg.Dir); err != nil {
			panic(fmt.Sprintf("wal: segment rotation failed: %v", err))
		}
	}
	lg.file = f
	lg.segBytes = 0
	lg.segHasData = false
	lg.wrote = false
	// Publish the new seq only after the segment exists, so TruncateCovered
	// never considers a not-yet-created segment closed.
	lg.seq.Store(next)
	if d := lg.dl.Load(); d > 0 {
		lg.writeDurable(d)
		if lg.m.cfg.Sync {
			lg.syncFile()
			lg.wrote = false
		}
	}
	lg.m.obs.rotations.Inc()
}

// iterate is one logger pass (§4.10, with one liveness refinement). The
// paper computes d = epoch(min ctid_w) − 1, which requires every worker to
// keep committing; here the epoch subsystem supplies the same bound without
// that assumption:
//
//  1. Read E (call it E0).
//  2. Read each assigned worker's epoch slot. An active worker's
//     in-flight transaction will commit in an epoch ≥ its local epoch
//     e_w, so it constrains d to e_w − 1. A quiescent worker's next
//     transaction enters at an epoch ≥ E0 (epochs are monotone and the
//     slot read follows the E0 read), so it constrains d only to E0 − 1.
//  3. Take each worker's closed buffers and its open one (WorkerLog.take)
//     and write them out. Everything a worker appended before step 2's
//     slot read is written by this step; anything appended after belongs
//     to an epoch > d by the argument above.
//  4. d = min(E0 − 1, min over active workers of e_w − 1); append the
//     durable frame and publish d_l.
//
// Every pass ends by checking the demand rule (closeIfDemanded), which
// publishing d_l may just have made true.
func (lg *logger) iterate() {
	lg.passBytes = 0
	defer func() {
		if lg.passBytes > 0 {
			lg.m.obs.passBytes.Observe(uint64(lg.passBytes))
		}
		lg.m.closeIfDemanded()
	}()
	e0 := lg.m.epochs.Global()
	if e0 == 0 {
		return
	}
	d := e0 - 1
	for _, wl := range lg.workers {
		slot := lg.m.epochs.Slot(wl.id)
		if slot.Active() {
			if l := slot.Local(); l == 0 {
				d = 0
			} else if l-1 < d {
				d = l - 1
			}
		}
	}
	for _, wl := range lg.workers {
		lg.bufs = wl.take(lg.bufs[:0])
		for _, buf := range lg.bufs {
			lg.writeBuffer(buf)
		}
		clear(lg.bufs)
	}
	if d == 0 || d <= lg.dl.Load() {
		if lg.m.cfg.Sync && lg.wrote {
			lg.syncFile()
			lg.wrote = false
		}
		return
	}
	lg.writeDurable(d)
	if lg.m.cfg.Sync && lg.wrote {
		lg.syncFile()
		lg.wrote = false
	}
	lg.dl.Store(d)
	lg.m.publishDurable()
	// One durable publish covers everything its workers committed since
	// the last one: that delta is the group-commit batch size.
	var committed uint64
	for _, wl := range lg.workers {
		committed += wl.txns.Load()
	}
	if delta := committed - lg.lastTxns; delta > 0 {
		lg.lastTxns = committed
		lg.m.obs.batchTxns.Observe(delta)
		lg.m.obs.txnsLogged.Add(delta)
	}
	// Rotate only right after a durable frame: the closed segment then ends
	// with its final d_l, so recovery of any segment prefix sees a durable
	// bound consistent with its contents.
	lg.maybeRotate()
}

func (lg *logger) writeBuffer(payload []byte) {
	kind := byte(frameBuffer)
	// A buffer the reader would refuse to inflate stays plain.
	if lg.m.cfg.Compress && len(payload) <= maxInflated {
		kind, payload = frameDeflated, deflate(payload)
	}
	if err := writeBufferFrame(lg.file, kind, payload); err != nil {
		panic(fmt.Sprintf("wal: log write failed: %v", err))
	}
	lg.wrote = true
	lg.segBytes += int64(len(payload)) + 9
	lg.passBytes += int64(len(payload)) + 9
	lg.segHasData = true
	lg.m.obs.bytesWritten.Add(uint64(len(payload)) + 9)
	lg.m.obs.buffersWritten.Inc()
}

func (lg *logger) writeDurable(d uint64) {
	if err := writeDurableFrame(lg.file, d); err != nil {
		panic(fmt.Sprintf("wal: log write failed: %v", err))
	}
	lg.wrote = true
	lg.segBytes += 13
	lg.passBytes += 13
	lg.m.obs.bytesWritten.Add(13)
}

// maxEpoch is the Visitor both truncation paths learn a segment's coverage
// from: the largest epoch among its transactions (0 when it holds none). It
// declines every transaction's entries, so nothing is decoded or copied.
type maxEpoch uint64

func (m *maxEpoch) Txn(t uint64, _ int) bool {
	if e := tid.Word(t).Epoch(); e > uint64(*m) {
		*m = maxEpoch(e)
	}
	return false
}

func (m *maxEpoch) Entry(uint32, []byte, []byte, bool) {}
func (m *maxEpoch) Frame([]byte, bool)                 {}
func (m *maxEpoch) FrameEnd(bool)                      {}

// unreadable is what removeCovered remembers of a segment whose walk stopped
// early: no checkpoint epoch covers it.
const unreadable = ^maxEpoch(0)

// removeCovered is the truncation rule. A checkpoint at epoch ce covers a
// segment, which is then deleted, when
//
//   - the segment is closed: its sequence number is below open[logger], the
//     segment its logger appends to — a running logger's open one, or the
//     newest on disk, where the next run resumes. That segment is never
//     deleted: nothing else is sure to hold the logger's durable bound d_l
//     (a rotation carries it forward), and recovery computes D from the
//     bounds of the loggers it finds; and
//   - every transaction in it has epoch < ce. (The image holds the versions
//     with epoch strictly below its snapshot epoch — see core.SnapTx — so
//     epoch-ce transactions are not in it and their segments must survive.)
//     That has to be known, not assumed: a segment whose walk stops at a
//     CRC-valid frame that does not inflate or decode holds transactions
//     nobody has seen, so it is kept, whatever ce is, and named in the
//     error; the other segments are still dealt with.
//
// seen, when non-nil, remembers each segment's largest epoch across calls
// (closed segments are immutable). It returns the deleted paths.
func removeCovered(fs vfs.FS, infos []LogFileInfo, open map[int]uint64, ce uint64, seen map[string]maxEpoch) (removed []string, err error) {
	for _, fi := range infos {
		if cur, ours := open[fi.Logger]; !ours || fi.Seq >= cur {
			continue
		}
		last, cached := seen[fi.Path]
		if !cached {
			data, release, rerr := fs.Map(fi.Path)
			if rerr != nil {
				return removed, errors.Join(err, rerr)
			}
			if ScanSegment(data, 1).Walk(&last) != nil {
				last = unreadable
			}
			release()
			if seen != nil {
				seen[fi.Path] = last
			}
		}
		if last == unreadable {
			err = errors.Join(err, fmt.Errorf("wal: %s: a frame with a valid checksum does not decode; segment kept", fi.Path))
			continue
		}
		if uint64(last) >= ce {
			continue // not covered yet
		}
		if rerr := fs.Remove(fi.Path); rerr != nil {
			return removed, errors.Join(err, rerr)
		}
		delete(seen, fi.Path)
		removed = append(removed, fi.Path)
	}
	return removed, err
}

// TruncateCovered deletes the closed log segments that a checkpoint at epoch
// ce covers (see removeCovered). It is safe to call while loggers run: each
// logger's open segment is never touched, nor is a segment of a logger this
// manager does not run, and closed segments are immutable. The checkpoint
// daemon calls this after each completed checkpoint; TruncateLogs is the
// same rule for a directory no logger has open.
func (m *Manager) TruncateCovered(ce uint64) (removed []string, err error) {
	if ce == 0 {
		return nil, nil
	}
	open := make(map[int]uint64, len(m.loggers))
	for _, lg := range m.loggers {
		open[lg.id] = lg.seq.Load()
	}
	infos, err := ListLogFiles(m.cfg.FS, m.cfg.Dir)
	if err != nil {
		return nil, err
	}
	m.segMu.Lock()
	defer m.segMu.Unlock()
	if m.segEpochs == nil {
		m.segEpochs = make(map[string]maxEpoch)
	}
	return removeCovered(m.cfg.FS, infos, open, ce, m.segEpochs)
}

// TruncateLogs deletes the log segments in logDir that a checkpoint at epoch
// ce covers (see removeCovered). Loggers must be stopped: every segment but
// each logger's newest is a candidate.
func TruncateLogs(logDir string, ce uint64) (removed []string, err error) {
	infos, err := ListLogFiles(nil, logDir)
	if err != nil {
		return nil, err
	}
	open := make(map[int]uint64)
	for _, fi := range infos { // sorted by (logger, seq): the newest comes last
		open[fi.Logger] = fi.Seq
	}
	return removeCovered(vfs.OS, infos, open, ce, nil)
}
