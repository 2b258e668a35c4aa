package index

import (
	"silo/internal/core"
	"silo/internal/obs"
)

// Scan resolution modes, one counter each.
const (
	modeBatched          = iota // Scan under a Tx
	modeStreamed                // ... of which resolved one point read per entry (scattered pks)
	modeCovering                // ScanCovering under a Tx: served from entry values
	modeEntries                 // ScanEntries: no resolution, keys only
	modeSnapshot                // Scan under a snapshot
	modeSnapshotCovering        // ScanCovering under a snapshot
	numModes
)

// scanModeNames are the silo_index_scans_total labels, in mode order.
var scanModeNames = [numModes]string{
	"batched", "batched_streamed", "covering", "entries", "snapshot", "snapshot_covering",
}

// Counters count how index reads resolve. The interesting signal is the
// resolution-mode mix — batched multi-get descents vs per-entry point
// reads vs covering (no resolution at all) — which tells an operator
// whether workloads are hitting the scan shape their indexes were declared
// for. One counter increment per scan or lookup call (not per entry). The
// schema catalog shares one Counters across all its indexes, so the totals
// outlive any one index.
type Counters struct {
	modes           [numModes]obs.Counter
	lookups         obs.Counter // Lookup: unique point resolution
	lookupConflicts obs.Counter // Lookup/Scan resolutions that found no row
}

// count records one read in txMode, or in snapMode when r is a snapshot
// transaction, and reports which.
func (o *Counters) count(r core.Reader, txMode, snapMode int) (snap bool) {
	if _, snap = r.(*core.SnapTx); snap {
		txMode = snapMode
	}
	o.modes[txMode].Inc()
	return snap
}

// CollectObs appends the counters to snap: silo_index_scans_total broken
// down by resolution mode, total unique lookups, and transactional
// resolutions that found an entry without its row (almost always a writer
// between the two trees, and the caller retried).
func (o *Counters) CollectObs(snap *obs.Snapshot) {
	for i, name := range scanModeNames {
		snap.Counter("silo_index_scans_total", "mode", name, o.modes[i].Load())
	}
	snap.Counter("silo_index_lookups_total", "", "", o.lookups.Load())
	snap.Counter("silo_index_resolve_conflicts_total", "", "", o.lookupConflicts.Load())
}
