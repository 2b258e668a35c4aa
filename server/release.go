package server

import "silo/wire"

// AckMode selects when a write's response is released to its client — the
// server-side half of the paper's §4.10 contract that a transaction's
// result reaches its client only once its epoch is durable.
type AckMode int

const (
	// AckImmediate releases responses at in-memory commit (the historical
	// behavior): fast, but a power cut right after an OK frame can lose
	// the acknowledged write. It is the only mode available without
	// durability, and remains the default for embedded Options zero
	// values so existing callers keep their semantics.
	AckImmediate AckMode = iota
	// AckGroup stamps each write response with its commit epoch and lets
	// the connection writer send it only once the global durable epoch D
	// covers that epoch. Workers commit and immediately move to the next
	// job; the writer, which already sends responses in request order,
	// first flushes the responses ahead of the write and then waits for D
	// (DB.WaitDurable), so one group-commit fsync releases every
	// connection's writes of that epoch. Reads, snapshot scans, and errors
	// are never stamped.
	AckGroup
)

func (m AckMode) String() string {
	switch m {
	case AckImmediate:
		return "immediate"
	case AckGroup:
		return "group"
	}
	return "unknown"
}

// awaitDurable holds a stamped response in the connection writer until D
// covers its commit epoch, then accounts for it. The wait from the
// worker's stamp to here is the group-commit fsync wait as the client
// experiences it: a TRACER gets it added to its Fsync span in place, so a
// traced write's timeline covers its true commit point even though no
// worker ever blocked on it. flush sends what the writer queued ahead of
// rb first, so those responses never wait for an epoch that is not theirs.
func (s *Server) awaitDurable(rb *respBuf, flush func()) {
	if rb.epoch > s.db.DurableEpoch() {
		flush()
		s.db.WaitDurable(rb.epoch)
	}
	lag := max(s.now()-rb.at, 0)
	s.obs.releaseLag.ObserveDuration(lag.Nanoseconds())
	wire.AddTraceFsync(rb.b, lag)
	s.obs.parked.Add(^uint64(0))
	s.obs.released.Inc()
}
