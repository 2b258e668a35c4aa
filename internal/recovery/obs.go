package recovery

import (
	"fmt"
	"io"
	"time"

	"silo/internal/obs"
)

// daemonObs holds the checkpoint daemon's latency and size histograms.
// One observation per completed checkpoint, from the daemon's own
// goroutine — nothing here is on a transaction path.
type daemonObs struct {
	duration obs.Histogram // wall-clock nanoseconds per completed checkpoint
	bytes    obs.Histogram // bytes written per checkpoint set (parts + manifest)
}

// CollectObs appends the checkpoint daemon's metric families to snap:
// completed/skipped/failed tick counts, covered-segment truncations, the
// newest set's epoch and row count, and duration/size histograms across
// completed checkpoints.
func (d *Daemon) CollectObs(snap *obs.Snapshot) {
	d.mu.Lock()
	st := d.stats
	d.mu.Unlock()
	snap.Counter("silo_ckpt_completed_total", "", "", uint64(st.Checkpoints))
	snap.Counter("silo_ckpt_skipped_total", "", "", uint64(st.Skipped))
	snap.Counter("silo_ckpt_failed_total", "", "", uint64(st.Failed))
	snap.Counter("silo_ckpt_truncated_segments_total", "", "", uint64(st.TruncatedSegments))
	snap.Gauge("silo_ckpt_last_epoch", "", "", st.LastEpoch)
	snap.Gauge("silo_ckpt_last_rows", "", "", uint64(st.LastRows))
	snap.Gauge("silo_ckpt_partitions", "", "", uint64(d.opts.Partitions))
	snap.Histogram("silo_ckpt_duration_ns", "", "", d.obs.duration.Snapshot())
	snap.Histogram("silo_ckpt_bytes", "", "", d.obs.bytes.Snapshot())
}

// ReplayBytesPerSec is the log-replay throughput of the pass: log bytes
// over the wall clock of both replay passes (0 when nothing was replayed).
func (r Result) ReplayBytesPerSec() uint64 {
	d := r.LogRead + r.LogApply
	if d <= 0 || r.LogBytes <= 0 {
		return 0
	}
	return uint64(float64(r.LogBytes) / d.Seconds())
}

// CollectObs appends the pass's numbers to snap as recovery metrics —
// gauges, because a recovery happens once per process, and what monitoring
// wants is "what did the last one do": epochs reached, work done per
// stage, stage wall clocks, and replay throughput.
func (r Result) CollectObs(snap *obs.Snapshot) {
	snap.Gauge("silo_recovery_durable_epoch", "", "", r.DurableEpoch)
	snap.Gauge("silo_recovery_checkpoint_epoch", "", "", r.CheckpointEpoch)
	snap.Gauge("silo_recovery_checkpoint_rows", "", "", uint64(r.CheckpointRows))
	snap.Gauge("silo_recovery_txns_applied", "", "", uint64(r.TxnsApplied))
	snap.Gauge("silo_recovery_txns_skipped", "", "", uint64(r.TxnsSkipped))
	snap.Gauge("silo_recovery_entries_applied", "", "", uint64(r.EntriesApplied))
	snap.Gauge("silo_recovery_entries_superseded", "", "", uint64(r.EntriesSuperseded))
	snap.Gauge("silo_recovery_log_bytes", "", "", uint64(r.LogBytes))
	snap.Gauge("silo_recovery_log_files", "", "", uint64(r.LogFiles))
	snap.Gauge("silo_recovery_stage_ns", "stage", "checkpoint_load", uint64(r.CheckpointLoad.Nanoseconds()))
	snap.Gauge("silo_recovery_stage_ns", "stage", "log_read", uint64(r.LogRead.Nanoseconds()))
	snap.Gauge("silo_recovery_stage_ns", "stage", "log_apply", uint64(r.LogApply.Nanoseconds()))
	snap.Gauge("silo_recovery_replay_bytes_per_sec", "", "", r.ReplayBytesPerSec())
}

// WriteReport renders the canonical human-readable recovery report — what
// was restored, per-stage timings, and replay throughput. Every consumer
// of a Result (cmd/silo-recover, silo-server at startup) prints this
// same rendering, so stage names and units never drift between tools.
// total is the wall clock of the whole pass including open/close overhead;
// pass <= 0 to use the stage sum.
func (r Result) WriteReport(w io.Writer, total time.Duration) {
	if total <= 0 {
		total = r.CheckpointLoad + r.LogRead + r.LogApply
	}
	fmt.Fprintf(w, "recovery report (%d workers):\n", r.Workers)
	if r.CheckpointEpoch > 0 {
		fmt.Fprintf(w, "  checkpoint: CE=%d, %d rows, loaded in %v\n",
			r.CheckpointEpoch, r.CheckpointRows, r.CheckpointLoad.Round(time.Microsecond))
	} else {
		fmt.Fprintf(w, "  checkpoint: none (full log replay)\n")
	}
	fmt.Fprintf(w, "  log: %d segments, %.1f MB, read and verified in %v\n",
		r.LogFiles, float64(r.LogBytes)/(1<<20), r.LogRead.Round(time.Microsecond))
	fmt.Fprintf(w, "  replay: D=%d, %d txns applied (%d beyond D, %d below checkpoint), %d keys installed (%d entries superseded), decoded in %d pieces, applied in %v (merge and build %v)\n",
		r.DurableEpoch, r.TxnsApplied, r.TxnsSkipped, r.TxnsBelowCheckpoint,
		r.EntriesApplied, r.EntriesSuperseded, r.LogPieces, r.LogApply.Round(time.Microsecond), r.Build.Round(time.Microsecond))
	secs := total.Seconds()
	if secs > 0 {
		fmt.Fprintf(w, "  throughput: %.0f txns/s, %.1f MB/s over %v total (checkpoint %.0f%%, log %.0f%%)\n",
			float64(r.TxnsApplied)/secs, float64(r.LogBytes)/(1<<20)/secs, total.Round(time.Microsecond),
			100*r.CheckpointLoad.Seconds()/secs, 100*(r.LogRead+r.LogApply).Seconds()/secs)
	}
	for _, name := range r.IndexesRolledForward {
		fmt.Fprintf(w, "  finished interrupted creation of index %s\n", name)
	}
	for _, name := range r.IndexesRolledBack {
		fmt.Fprintf(w, "  rolled back interrupted creation of index %s\n", name)
	}
}
