package server

import (
	"sync"
	"sync/atomic"
	"time"

	"silo/internal/race"
	"silo/wire"
)

// This file owns the hot path's recycled memory: pooled chains (a burst's
// payloads, decode scratch and responses) and pooled response buffers.
// Ownership passes strictly along the connection:
//
//	reader  — takes a chain per burst, decodes each frame in place into a
//	          job, runs the chain on a worker context (each response
//	          encoded into a pooled respBuf kept in its job, stamped with
//	          its epoch under group acks), and queues it for the writer
//	helper  — runs the rest of a chain handed to it; after its last
//	          signal it never touches the chain
//	writer  — queues each response as a writev segment (a stamped one
//	          after D), recycles the chain, and returns the buffers after
//	          the writev that covered them
//
// Race-enabled builds poison recycled memory on return to the pool, so a
// stage that holds a view past its release serves garbage and the
// byte-exact e2e tests fail loudly. A noReuse server (the tests' golden
// reference) runs the same code on fresh memory: a new chain per burst,
// response buffer and exec state per request; nothing is pooled.

// job is one request of a chain, recycled with it.
type job struct {
	req wire.Request
	// payload is the frame payload backing req; key/value/table slices in
	// req alias it until the response is encoded.
	payload []byte
	// scratch recycles the request's op-slice backing and table-name
	// interning across frames decoded into this job.
	scratch wire.DecodeScratch
	// rb is the encoded response.
	rb *respBuf
}

// chain is one pipelined burst: up to maxChain requests a reader decoded
// together, run in order, and queued whole for the writer.
type chain struct {
	jobs [maxChain]job
	// n jobs hold requests; refused means jobs[n].rb answers a malformed
	// frame that ended the burst.
	n       int
	refused bool
	// enq is when the burst was decoded (enqTS on the store clock): every
	// request's queue time starts there.
	enq   time.Time
	enqTS time.Duration
	// shared marks a chain the reader handed on in part; each run segment
	// then takes its requests off left once, and the last one signals done.
	shared bool
	left   atomic.Int32
	done   chan struct{}
}

// respBuf is a pooled response-frame buffer, the one form a response
// takes on its way to the writer. The wrapper (rather than a bare []byte)
// keeps pool round trips allocation-free.
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

func newChain() *chain { return &chain{done: make(chan struct{}, 1)} }

var chainPool = sync.Pool{New: func() any { return newChain() }}

var respBufPool = sync.Pool{New: func() any { return new(respBuf) }}

// getChain returns a recycled chain (noReuse builds get a fresh one, the
// golden baseline the recycling e2e test compares against).
func (s *Server) getChain() *chain {
	if s.opts.noReuse {
		return newChain()
	}
	return chainPool.Get().(*chain)
}

// putChain recycles a chain whose responses the writer holds: nothing
// references its payloads, scratch or requests anymore.
func (s *Server) putChain(c *chain) {
	if s.opts.noReuse {
		return
	}
	// The slot after the last request may hold a refused frame.
	for i := range c.jobs[:min(c.n+1, maxChain)] {
		j := &c.jobs[i]
		if race.Enabled {
			poison(j.payload)
		}
		if cap(j.payload) > maxPooled {
			j.payload = nil
			// The scratch's op backing aliases the dropped payload; release it
			// too so the pool does not pin the oversized buffer.
			j.scratch.Drop()
		}
		j.req, j.rb = wire.Request{}, nil
	}
	c.n, c.refused, c.shared = 0, false, false
	c.enq, c.enqTS = time.Time{}, 0
	chainPool.Put(c)
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
