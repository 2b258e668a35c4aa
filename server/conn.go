package server

import (
	"bufio"
	"net"
	"time"

	"silo/internal/trace"
	"silo/wire"
)

// handleConn runs one connection: a reader loop (this goroutine) that
// decodes frames and dispatches jobs, and a writer goroutine that sends
// responses back in request order. The reader pushes each job onto the
// in-order pending queue before dispatching it, so wire order always
// matches request order even though jobs complete on different workers.
func (s *Server) handleConn(c net.Conn, id uint64) {
	defer s.connWG.Done()
	s.db.Flight().RecordShared(trace.EvConnOpen, 0, 0, id, nil)
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.db.Flight().RecordShared(trace.EvConnClose, 0, 0, id, nil)
	}()

	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}

	pending := make(chan *job, s.opts.Pipeline)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(c, pending)
	}()

	br := bufio.NewReaderSize(c, 64<<10)
	for {
		j := s.getJob()
		payload, err := wire.ReadFrameInto(br, s.opts.MaxFrame, j.payload)
		if err != nil {
			s.putJob(j)
			break
		}
		j.payload = payload
		if derr := wire.DecodeRequestInto(payload, &j.req, &j.scratch); derr != nil {
			// A malformed frame poisons the stream (framing may be lost):
			// answer it and hang up.
			s.errors64.Add(1)
			er := wire.Err(wire.CodeProto, derr.Error())
			j.done <- s.encodeResp(&er, nil)
			pending <- j
			break
		}
		// Order matters: enqueue on pending (FIFO with the writer) before
		// the job becomes runnable. Both sends can block — pending for
		// per-connection backpressure, jobs when all workers are busy —
		// but never forever: the writer drains pending as long as
		// executors run, and executors outlive every connection handler.
		j.enq = time.Now()
		j.enqTS = s.now()
		pending <- j
		s.obs.depth.Observe(uint64(len(pending)))
		s.jobs <- j
	}
	close(pending)
	<-writerDone
}

// flushBytes caps how many encoded bytes the writer queues before
// forcing a writev even while more responses are ready: a pipeline of
// large SCANR pages flushes in bounded chunks instead of accumulating
// the whole burst in memory.
const flushBytes = 1 << 20

// writeLoop drains the pending queue in order. Each response arrives
// already encoded in a recycled buffer (TRACER frames, patched at
// release time, are encoded here) and is queued as one scatter-gather
// segment; the batch is flushed with a single writev when no further
// response is immediately ready, so a pipelined burst costs one syscall
// and large pages go to the socket without a coalescing copy. Buffers
// return to the pool only after the writev that covered them. On a
// write error it keeps draining so executors and the reader never block
// on a dead connection.
func (s *Server) writeLoop(c net.Conn, pending chan *job) {
	var (
		segs   = make([][]byte, 0, 64)
		owned  = make([]*respBuf, 0, 64)
		queued int
		broken bool
	)
	flush := func() {
		if len(segs) > 0 && !broken {
			bufs := net.Buffers(segs)
			if _, err := bufs.WriteTo(c); err != nil {
				broken = true
			}
		}
		for i, rb := range owned {
			s.putBuf(rb)
			owned[i] = nil
		}
		segs = segs[:0]
		owned = owned[:0]
		queued = 0
	}
	for j := range pending {
		m := <-j.done
		s.putJob(j)
		if m.resp != nil {
			// Late-encoded path: the response stayed decoded past the
			// executor (a TRACER whose Fsync span the releaser patched).
			rb := s.getBuf()
			b, err := wire.AppendResponse(rb.b[:0], m.resp)
			if err != nil {
				// Encoding failure is a server bug; degrade to an ERR frame
				// rather than desynchronizing the stream.
				b, _ = wire.AppendResponse(rb.b[:0], &wire.Response{
					Kind: wire.KindErr, Code: wire.CodeInternal, Msg: err.Error(),
				})
			}
			rb.b = b
			m = outMsg{rb: rb}
		}
		if broken {
			s.putBuf(m.rb)
			continue
		}
		segs = append(segs, m.rb.b)
		owned = append(owned, m.rb)
		queued += len(m.rb.b)
		if len(pending) == 0 || queued >= flushBytes {
			flush()
		}
	}
	flush()
}
