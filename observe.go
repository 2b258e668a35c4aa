package silo

import (
	"silo/internal/obs"
)

// ObsSnapshot is one point-in-time metrics snapshot: a flat list of
// samples (counters, gauges, power-of-two-bucket histograms), renderable
// as Prometheus text (WritePrometheus), an expvar map (ExpvarMap), or the
// versioned binary form the STATS wire frame carries (AppendBinary /
// obs.DecodeSnapshot via wire.DecodeResponse).
type ObsSnapshot = obs.Snapshot

// ObsSample is one sample of an ObsSnapshot.
type ObsSample = obs.Sample

// ObsHistSnapshot is a merged histogram snapshot: total count and sum plus
// 64 power-of-two buckets, with Quantile and Mean estimators.
type ObsHistSnapshot = obs.HistSnapshot

// Observe collects one metrics snapshot across every layer of the
// database: engine commit/abort/read/write counters with abort-reason and
// per-table breakdowns plus commit-phase latencies, the garbage collector's
// snapshot versions, retained bytes and unhooks, index scan-resolution
// modes, and — when durability is on — WAL fsync latency, group-commit
// batch sizes, durable-epoch lag, checkpoint daemon figures, and the
// recovery pass Open ran. It is the only way to read the engine's and the
// log's counts (a server adds its own with Server.CollectObs); an interval
// measurement is the difference of two snapshots. Snapshots are safe to take while
// transactions run (per-worker cells are read without coordination; totals
// may lag a concurrent commit by a few increments) and are returned sorted,
// so two quiesced snapshots of the same store are byte-identical in binary
// form.
func (db *DB) Observe() *ObsSnapshot {
	snap := &obs.Snapshot{}
	db.store.CollectObs(snap)
	db.catalog.CollectObs(snap)
	if db.wal != nil {
		db.wal.CollectObs(snap)
	}
	if db.daemon != nil {
		db.daemon.CollectObs(snap)
	}
	if db.recovered != nil {
		db.recovered.CollectObs(snap)
	}
	snap.Sort()
	return snap
}
