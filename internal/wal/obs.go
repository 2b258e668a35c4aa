package wal

import (
	"silo/internal/obs"
)

// managerObs holds the durability layer's observability cells. Loggers
// record from their own goroutines (one histogram observation per
// fsync, one per durable pass); nothing here touches the worker commit
// path except the one per-commit txn-count increment in onCommit, which
// lands on the worker's own WorkerLog cache line.
type managerObs struct {
	fsync          obs.Histogram // nanoseconds per file sync
	passBytes      obs.Histogram // bytes appended per logger pass that wrote
	batchTxns      obs.Histogram // transactions covered per durable-frame publish
	rotations      obs.Counter   // segments closed by rotation
	bytesWritten   obs.Counter   // frame bytes appended, buffer and durable frames
	buffersWritten obs.Counter   // buffer frames appended
	txnsLogged     obs.Counter   // transactions covered by a durable frame
}

// CollectObs appends the durability layer's metric families to snap:
// cumulative byte/buffer/transaction totals, segment rotations, the
// durable epoch D and its lag behind the global epoch E (the group
// commit window a crash would lose), fsync latency, bytes per durable
// pass, and group-commit batch sizes.
func (m *Manager) CollectObs(snap *obs.Snapshot) {
	snap.Counter("silo_wal_bytes_written_total", "", "", m.obs.bytesWritten.Load())
	snap.Counter("silo_wal_buffers_written_total", "", "", m.obs.buffersWritten.Load())
	snap.Counter("silo_wal_txns_logged_total", "", "", m.obs.txnsLogged.Load())
	snap.Counter("silo_wal_rotations_total", "", "", m.obs.rotations.Load())
	d := m.durable.Load()
	e := m.epochs.Global()
	var lag uint64
	if e > d {
		lag = e - d
	}
	snap.Gauge("silo_wal_durable_epoch", "", "", d)
	snap.Gauge("silo_wal_durable_lag_epochs", "", "", lag)
	snap.Histogram("silo_wal_fsync_ns", "", "", m.obs.fsync.Snapshot())
	snap.Histogram("silo_wal_pass_bytes", "", "", m.obs.passBytes.Snapshot())
	snap.Histogram("silo_wal_batch_txns", "", "", m.obs.batchTxns.Snapshot())
}
