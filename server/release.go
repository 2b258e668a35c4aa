package server

import (
	"sync"
	"sync/atomic"
	"time"

	"silo/internal/obs"
	"silo/wire"
)

// AckMode selects when a write's response is released to the connection
// writer — the server-side half of the paper's §4.10 contract that a
// transaction's result reaches its client only once its epoch is durable.
type AckMode int

const (
	// AckImmediate releases responses at in-memory commit (the historical
	// behavior): fast, but a power cut right after an OK frame can lose
	// the acknowledged write. It is the only mode available without
	// durability, and remains the default for embedded Options zero
	// values so existing callers keep their semantics.
	AckImmediate AckMode = iota
	// AckGroup parks each write response on an epoch-keyed release queue
	// and hands it to the connection writer only once the global durable
	// epoch D covers the transaction's commit epoch. Workers commit and
	// immediately move to the next job; one group-commit fsync releases
	// every connection's parked responses for that epoch. Reads, snapshot
	// scans, and errors release immediately.
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

// parkedResp is one completed write's encoded response frame waiting for
// its commit epoch to become durable.
type parkedResp struct {
	rb   *respBuf
	done chan<- *respBuf
	at   time.Duration // store clock at park, for the release-lag histogram
}

// releaser is the group-commit response-release pipeline: an epoch-keyed
// parking lot drained by one notifier goroutine subscribed to durable-
// epoch advances. Per-connection wire order is preserved for free — the
// connection reader enqueues each job's result channel on its in-order
// pending queue before dispatch, and the writer blocks on the oldest
// channel — so delaying a send here delays that response and everything
// behind it on the same connection, never reorders.
type releaser struct {
	s      *Server
	notify <-chan uint64

	mu    sync.Mutex
	queue map[uint64][]parkedResp // commit epoch → responses parked on it

	parked   atomic.Int64  // gauge: responses currently parked
	released atomic.Uint64 // responses that went through the pipeline
	lag      obs.Histogram // ns from park to release

	stopc chan struct{}
	done  chan struct{}
}

func newReleaser(s *Server, notify <-chan uint64) *releaser {
	r := &releaser{
		s:      s,
		notify: notify,
		queue:  make(map[uint64][]parkedResp),
		stopc:  make(chan struct{}),
		done:   make(chan struct{}),
	}
	go r.loop()
	return r
}

// park holds rb until D covers epoch e, then sends it to done. If e is
// already durable the response is released inline. The durable check and
// the queue insert share r.mu with the drain: if D advances past e after
// the check, the advance's notification is still undelivered (the notify
// channel coalesces but never drops the newest value), so the notifier's
// next drain — which must acquire r.mu after this insert — releases the
// entry. Nothing can park forever behind an already-durable epoch.
func (r *releaser) park(rb *respBuf, done chan<- *respBuf, e uint64) {
	at := r.s.now()
	r.mu.Lock()
	if r.s.db.DurableEpoch() >= e {
		r.mu.Unlock()
		r.lag.ObserveDuration(0)
		r.released.Add(1)
		done <- rb
		return
	}
	r.queue[e] = append(r.queue[e], parkedResp{rb: rb, done: done, at: at})
	r.parked.Add(1)
	r.mu.Unlock()
}

// loop drains the parking lot as durable-epoch notifications arrive. A
// closed notify channel means durability stopped after its final drain —
// every committed epoch is durable — so everything still parked is
// releasable. stop() flushes for the same reason: the server only stops
// the releaser after the executors have exited, and the result channels
// are buffered, so flushing can never block or lose a response.
func (r *releaser) loop() {
	defer close(r.done)
	for {
		select {
		case d, ok := <-r.notify:
			if !ok {
				r.releaseUpTo(^uint64(0))
				return
			}
			// The channel coalesces to the newest value, but D may have
			// advanced again since that send; drain to the live value.
			if cur := r.s.db.DurableEpoch(); cur > d {
				d = cur
			}
			r.releaseUpTo(d)
		case <-r.stopc:
			r.releaseUpTo(^uint64(0))
			return
		}
	}
}

// releaseUpTo hands every response parked at an epoch ≤ d to its
// connection writer. Sends happen outside r.mu (they cannot block — done
// channels are buffered for exactly one response — but there is no reason
// to hold the lock across them).
func (r *releaser) releaseUpTo(d uint64) {
	r.mu.Lock()
	var out []parkedResp
	for e, list := range r.queue {
		if e <= d {
			out = append(out, list...)
			delete(r.queue, e)
		}
	}
	r.mu.Unlock()
	if len(out) == 0 {
		return
	}
	now := r.s.now()
	for i := range out {
		p := &out[i]
		lag := now - p.at
		if lag < 0 {
			lag = 0
		}
		r.lag.ObserveDuration(lag.Nanoseconds())
		// The park-to-release wait is the group-commit fsync wait as the
		// client experiences it: a parked TRACER gets it added to its
		// Fsync span, so a traced write's timeline covers its true commit
		// point even though no worker ever blocked on it.
		wire.AddTraceFsync(p.rb.b, lag)
		p.done <- p.rb
		r.parked.Add(-1)
		r.released.Add(1)
	}
}

func (r *releaser) stop() {
	close(r.stopc)
	<-r.done
}
