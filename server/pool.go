package server

import (
	"sync"
	"time"

	"silo/internal/race"
	"silo/wire"
)

// This file owns the hot path's recycled memory: pooled jobs (frame
// payload, decode scratch, result channel) and pooled response buffers
// (encoded frames on their way to a connection writer). The lifecycle is
// strict single-ownership passed along the pipeline:
//
//	reader  — takes a job from the pool per frame already buffered, reads
//	          the frame into its payload, decodes into its request/scratch,
//	          links the burst's jobs into a chain (job.next), sends the
//	          chain's head on the dispatch queue, then enqueues every job
//	          on the connection's pending queue
//	worker  — walks the chain in order; per job it reads the link, executes
//	          the request on its exec state, encodes the response into a
//	          pooled respBuf (stamped with its commit epoch under group
//	          acks) and sends it on that job's done channel. The send
//	          releases the job: a worker never touches a job it has
//	          responded to
//	writer  — takes jobs off pending in request order, waits on each done
//	          (and, for a stamped buffer, on D, adding a TRACER's fsync
//	          wait to the frame in place), queues the buffer as one writev
//	          segment, and after the segments are flushed returns buffers
//	          and job to their pools
//
// Race-enabled builds poison recycled memory on return to the pool, so
// any stage that holds a view past its release reads garbage and the
// byte-exact e2e tests fail loudly instead of silently serving another
// request's bytes. A noReuse server (the tests' golden reference) runs the
// same pipeline on fresh memory: a new job, response buffer and exec state
// per request, nothing returned to a pool.

// job is one in-flight request. The reader owns it until its chain is
// dispatched, the executor until the done send, the writer until it
// returns it to the pool; the pooled pieces (payload backing, decode
// scratch, the buffered done channel) are recycled across requests and
// connections.
type job struct {
	req wire.Request
	// next is the request after this one in the same dispatched chain, nil
	// at the chain's end.
	next *job
	// payload is the frame payload backing req; key/value/table slices in
	// req alias it until the response is encoded.
	payload []byte
	// scratch recycles the request's op-slice backing and table-name
	// interning across frames decoded into this job.
	scratch wire.DecodeScratch
	// enq is when the connection reader dispatched the job; the executor
	// records the difference as queue time.
	enq time.Time
	// enqTS is the same instant on the store clock, so a traced job's
	// queue-wait span shares a clock with its commit-phase spans.
	enqTS time.Duration
	// done receives exactly one encoded response frame; it is buffered so
	// the executor never blocks on a connection that died.
	done chan *respBuf
}

// respBuf is a pooled response-frame buffer, the one form a response
// takes between executor and connection writer. The wrapper (rather than
// a bare []byte) keeps pool round trips allocation-free: the same *respBuf
// travels worker → writer → pool with the byte slice updated in place.
type respBuf struct {
	b []byte
	// epoch is the commit epoch a group-acked write's frame waits on in the
	// writer (0: send at once); at is the store-clock time the worker
	// stamped it, for the release-lag histogram.
	epoch uint64
	at    time.Duration
}

// maxPooled caps the capacity a recycled payload or response buffer may
// keep: a single huge frame (a multi-megabyte SCANR page, a bulk-load
// TXN) should not pin its buffer in the pool forever. Oversized buffers
// are dropped and the next use re-allocates.
const maxPooled = 256 << 10

var jobPool = sync.Pool{New: func() any { return &job{done: make(chan *respBuf, 1)} }}

var respBufPool = sync.Pool{New: func() any { return new(respBuf) }}

// getJob returns a recycled job (noReuse builds get a fresh one, the
// golden baseline the recycling e2e test compares against).
func (s *Server) getJob() *job {
	if s.opts.noReuse {
		return &job{done: make(chan *respBuf, 1)}
	}
	return jobPool.Get().(*job)
}

// putJob recycles a fully consumed job: its response was encoded and
// handed to the writer, so nothing references the payload,
// the scratch, or the request anymore.
func (s *Server) putJob(j *job) {
	if s.opts.noReuse {
		return
	}
	if race.Enabled {
		poison(j.payload)
	}
	if cap(j.payload) > maxPooled {
		j.payload = nil
		// The scratch's op backing aliases the dropped payload; release it
		// too so the pool does not pin the oversized buffer.
		j.scratch.Drop()
	}
	j.req = wire.Request{}
	j.next = nil
	j.enq = time.Time{}
	j.enqTS = 0
	jobPool.Put(j)
}

func (s *Server) getBuf() *respBuf {
	if s.opts.noReuse {
		return new(respBuf)
	}
	return respBufPool.Get().(*respBuf)
}

// putBuf recycles an encoded-frame buffer after the writer flushed it
// (or dropped it on a broken connection).
func (s *Server) putBuf(rb *respBuf) {
	if s.opts.noReuse {
		return
	}
	if race.Enabled {
		poison(rb.b)
	}
	if cap(rb.b) > maxPooled {
		rb.b = nil
	}
	rb.epoch, rb.at = 0, 0
	respBufPool.Put(rb)
}

// poisonByte is what race-enabled builds overwrite recycled buffers
// with; a stage reading a buffer it already released sees frames full of
// 0xDB instead of plausibly stale bytes.
const poisonByte = 0xDB

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
