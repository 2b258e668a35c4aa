package recovery

import (
	"path/filepath"
	"sync"
	"time"

	"silo/internal/core"
	"silo/internal/trace"
	"silo/internal/vfs"
	"silo/internal/wal"
)

// DaemonOptions configures the background checkpoint daemon.
type DaemonOptions struct {
	// Dir is the durability directory (checkpoints live beside the log).
	Dir string
	// Interval is the period between checkpoint attempts.
	Interval time.Duration
	// Partitions is the partition count per checkpoint (default 4).
	Partitions int
	// Catalog, when non-nil, is the silo-level DDL catalog table: its rows
	// are embedded in each checkpoint manifest's schema section, keeping
	// checkpoints self-describing so log truncation can never strand the
	// schema.
	Catalog *core.Table
	// FS is the filesystem checkpoints are written to; nil means the real
	// one. Clock drives the background loop; nil means real time. The
	// simulation harness substitutes both.
	FS    vfs.FS
	Clock vfs.Clock
}

// DaemonStats is a snapshot of the daemon's counters.
type DaemonStats struct {
	// Checkpoints is the number of completed checkpoints.
	Checkpoints int
	// Skipped counts ticks that took no checkpoint (snapshot epoch not
	// yet advanced past the newest set).
	Skipped int
	// LastEpoch, LastRows, and LastElapsed describe the newest checkpoint.
	LastEpoch   uint64
	LastRows    int
	LastElapsed time.Duration
	// TruncatedSegments counts log segments deleted because a checkpoint
	// covered them.
	TruncatedSegments int
	// Failed counts ticks that returned an error, and LastErr is the most
	// recent one (nil when healthy). A failed tick never damages
	// durability: the previous complete checkpoint set and the full log
	// remain.
	Failed  int
	LastErr error
}

// Daemon periodically takes partitioned checkpoints off snapshot epochs
// while writers run, prunes every checkpoint set but the newest complete
// one, and truncates log segments whose transactions all predate the
// checkpoint epoch. It runs its snapshot transactions on the store's
// dedicated maintenance worker, so application workers are never borrowed
// and never blocked.
type Daemon struct {
	store *core.Store
	wal   *wal.Manager
	opts  DaemonOptions

	ticker  vfs.Ticker
	started bool

	mu     sync.Mutex
	stats  DaemonStats
	lastCE uint64

	obs daemonObs
}

// NewDaemon creates a daemon without starting it; RunOnce drives it
// manually (tests), Start launches the background loop. m may be nil when
// no live logger manager exists (checkpoint-only operation) — log
// truncation is then skipped.
func NewDaemon(store *core.Store, m *wal.Manager, opts DaemonOptions) *Daemon {
	if opts.Partitions <= 0 {
		opts.Partitions = 4
	}
	opts.FS = vfs.DefaultFS(opts.FS)
	opts.Clock = vfs.DefaultClock(opts.Clock)
	d := &Daemon{store: store, wal: m, opts: opts}
	// Resume from the newest complete set on disk so a restart does not
	// immediately rewrite an up-to-date checkpoint.
	if found, err := findCheckpoints(opts.FS, opts.Dir); err == nil {
		for i := len(found) - 1; i >= 0; i-- {
			if m, err := readManifest(opts.FS, filepath.Join(found[i].path, manifestName)); err == nil {
				d.lastCE = m.epoch
				break
			}
		}
	}
	return d
}

// Start launches the daemon loop. The maintenance worker must not be
// driven by anyone else while the daemon runs.
func (d *Daemon) Start() {
	if d.started {
		return
	}
	d.started = true
	d.ticker = d.opts.Clock.Ticker(d.opts.Interval, func() { d.RunOnce() })
}

// Stop halts the loop and waits for an in-flight checkpoint to finish.
func (d *Daemon) Stop() {
	if !d.started {
		return
	}
	d.started = false
	d.ticker.Stop()
}

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon) Stats() DaemonStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// RunOnce performs one daemon tick: checkpoint (if the snapshot epoch has
// advanced past the newest set), prune, truncate. It must not be called
// concurrently with a started daemon — it drives the maintenance worker.
func (d *Daemon) RunOnce() error {
	sew := d.store.Epochs().SnapshotGlobal()
	d.mu.Lock()
	last := d.lastCE
	d.mu.Unlock()
	if sew == 0 || sew <= last {
		d.mu.Lock()
		d.stats.Skipped++
		d.mu.Unlock()
		return nil
	}

	// Flight-recorder stage events bracket the tick: begin carries the
	// snapshot epoch the checkpoint will be cut at, written and truncate
	// carry the completed checkpoint's epoch.
	d.store.Flight().RecordShared(trace.EvCheckpoint, trace.CkptStageBegin, 0, sew, nil)

	res, err := WriteCheckpoint(d.opts.FS, d.store, d.store.Maintenance(), d.opts.Dir, d.opts.Partitions, d.opts.Catalog)
	if err != nil {
		d.mu.Lock()
		d.stats.Failed++
		d.stats.LastErr = err
		d.mu.Unlock()
		return err
	}
	d.store.Flight().RecordShared(trace.EvCheckpoint, trace.CkptStageWritten, 0, res.Epoch, nil)

	var truncated int
	if _, err = PruneCheckpoints(d.opts.FS, d.opts.Dir, 1); err == nil && d.wal != nil {
		// Checkpoint-triggered rotation: ask every logger to close its open
		// segment so the pre-checkpoint prefix becomes truncatable on the
		// next tick, tightening the log-space bound to roughly one
		// checkpoint interval of writes. Then truncate what previous
		// rotations already closed.
		d.wal.RequestRotate()
		var removed []string
		removed, err = d.wal.TruncateCovered(res.Epoch)
		truncated = len(removed)
		if truncated > 0 {
			d.store.Flight().RecordShared(trace.EvCheckpoint, trace.CkptStageTruncate, 0, res.Epoch, nil)
		}
	}

	d.obs.duration.ObserveDuration(res.Elapsed.Nanoseconds())
	d.obs.bytes.Observe(uint64(res.Bytes))

	d.mu.Lock()
	d.lastCE = res.Epoch
	d.stats.Checkpoints++
	d.stats.LastEpoch = res.Epoch
	d.stats.LastRows = res.Rows
	d.stats.LastElapsed = res.Elapsed
	d.stats.TruncatedSegments += truncated
	if err != nil {
		d.stats.Failed++
	}
	d.stats.LastErr = err
	d.mu.Unlock()
	return err
}
