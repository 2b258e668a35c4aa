package core

// Stats are per-worker event counters. Workers update their own stats
// without synchronization; Store.Stats sums them (reading racily, which is
// fine for monitoring — benchmarks snapshot after workers quiesce).
type Stats struct {
	Commits uint64
	Aborts  uint64
	Reads   uint64
	Writes  uint64

	SnapshotTxns            uint64
	SnapshotVersionsCreated uint64
	SnapshotVersionsReaped  uint64
	SnapshotBytesRetained   uint64

	UnhooksDone    uint64
	UnhooksSkipped uint64

	BytesAllocated uint64
}

func (s *Stats) add(o *Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.SnapshotTxns += o.SnapshotTxns
	s.SnapshotVersionsCreated += o.SnapshotVersionsCreated
	s.SnapshotVersionsReaped += o.SnapshotVersionsReaped
	s.SnapshotBytesRetained += o.SnapshotBytesRetained
	s.UnhooksDone += o.UnhooksDone
	s.UnhooksSkipped += o.UnhooksSkipped
	s.BytesAllocated += o.BytesAllocated
}

// Sub returns s − o field-wise (for interval measurements).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Commits:                 s.Commits - o.Commits,
		Aborts:                  s.Aborts - o.Aborts,
		Reads:                   s.Reads - o.Reads,
		Writes:                  s.Writes - o.Writes,
		SnapshotTxns:            s.SnapshotTxns - o.SnapshotTxns,
		SnapshotVersionsCreated: s.SnapshotVersionsCreated - o.SnapshotVersionsCreated,
		SnapshotVersionsReaped:  s.SnapshotVersionsReaped - o.SnapshotVersionsReaped,
		SnapshotBytesRetained:   s.SnapshotBytesRetained, // gauge, not a counter
		UnhooksDone:             s.UnhooksDone - o.UnhooksDone,
		UnhooksSkipped:          s.UnhooksSkipped - o.UnhooksSkipped,
		BytesAllocated:          s.BytesAllocated - o.BytesAllocated,
	}
}
