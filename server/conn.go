package server

import (
	"bufio"
	"encoding/binary"
	"net"
	"time"

	"silo/internal/trace"
	"silo/wire"
)

// maxChain caps how many requests of one pipelined burst travel as a
// single chain: long enough that a burst costs one dispatch, short enough
// that a deep pipeline is cut into several chains for several workers
// from the start.
const maxChain = 16

// handleConn runs one connection: a reader loop (this goroutine) that
// decodes frames and dispatches them a burst at a time, and a writer
// goroutine that sends responses back in request order. A burst is every
// request already sitting complete in the read buffer (a lone request is
// a burst of one): its jobs are linked into a chain, handed to a worker
// with one send, and then queued in order on the connection's pending
// FIFO, so wire order always matches request order even though chains
// complete on different workers.
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
	var burst [maxChain]*job
	for open := true; open; {
		n := 0
		var refused *job // a malformed frame, already answered
		for {
			j := s.getJob()
			payload, err := wire.ReadFrameInto(br, s.opts.MaxFrame, j.payload)
			if err != nil {
				s.putJob(j)
				open = false
				break
			}
			j.payload = payload
			if derr := wire.DecodeRequestInto(payload, &j.req, &j.scratch); derr != nil {
				// A malformed frame poisons the stream (framing may be lost):
				// answer it, after the requests ahead of it, and hang up.
				s.errors64.Add(1)
				er := wire.Err(wire.CodeProto, derr.Error())
				j.done <- s.encodeResp(&er)
				refused, open = j, false
				break
			}
			burst[n] = j
			n++
			if n == maxChain || !frameBuffered(br) {
				break
			}
		}
		// Dispatch before queueing on pending: the chain must be runnable
		// before this reader can block on a full pending queue, or a
		// Pipeline smaller than the burst would wait on responses nobody
		// is computing. After dispatch the jobs belong to the workers and
		// the writer; only the pointers are used here. Both sends can
		// block — jobs when all workers are busy, pending for
		// per-connection backpressure — but never forever: executors
		// outlive every connection handler, and the writer drains pending
		// as long as they run.
		s.dispatch(burst[:n])
		for _, j := range burst[:n] {
			pending <- j
			s.obs.depth.Observe(uint64(len(pending)))
		}
		if refused != nil {
			pending <- refused
		}
	}
	close(pending)
	<-writerDone
}

// frameBuffered reports whether the next frame is already complete in
// br, so reading it cannot block. A length the frame reader will refuse
// (zero, oversized) counts as buffered: the refusal needs no more bytes.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint64(br.Buffered()) >= 4+uint64(binary.BigEndian.Uint32(hdr))
}

// dispatch hands one burst to the executors as a chain: one send,
// whatever the burst's length.
func (s *Server) dispatch(burst []*job) {
	if len(burst) == 0 {
		return
	}
	enq, enqTS := time.Now(), s.now()
	for i, j := range burst {
		j.enq, j.enqTS = enq, enqTS
		if i+1 < len(burst) {
			j.next = burst[i+1]
		}
	}
	s.obs.dispatches.Inc()
	s.jobs <- burst[0]
}

// flushBytes caps how many encoded bytes the writer queues before
// forcing a writev even while more responses are ready: a pipeline of
// large SCANR pages flushes in bounded chunks instead of accumulating
// the whole burst in memory.
const flushBytes = 1 << 20

// writeLoop drains the pending queue in order. Each response arrives
// already encoded in a recycled buffer and is queued as one scatter-gather
// segment; the batch is flushed with a single writev when no further
// response is immediately ready, so a pipelined burst costs one syscall
// and large pages go to the socket without a coalescing copy. A group-acked
// write whose epoch is not yet durable flushes the batch ahead of it and
// waits for D right here (awaitDurable): delaying it delays that response
// and everything behind it on this connection, never reorders. Buffers
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
		rb := <-j.done
		s.putJob(j)
		if rb.epoch != 0 {
			s.awaitDurable(rb, flush)
		}
		if broken {
			s.putBuf(rb)
			continue
		}
		segs = append(segs, rb.b)
		owned = append(owned, rb)
		queued += len(rb.b)
		if len(pending) == 0 || queued >= flushBytes {
			flush()
		}
	}
	flush()
}
