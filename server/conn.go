package server

import (
	"bufio"
	"net"
	"sync/atomic"

	"silo/internal/trace"
	"silo/wire"
)

// maxChain caps how many requests of one pipelined burst run as a single
// chain: long enough that a burst costs one context hand-over and one
// writer wake-up, short enough that a deep pipeline is cut into several
// chains and its reader returns to its socket between them.
const maxChain = 16

// handleConn runs one connection: a reader loop (this goroutine) that
// decodes frames and runs them a burst at a time, and a writer goroutine
// that sends responses back in request order. A burst is every request
// already complete in the read buffer (a lone request is a burst of one).
// The reader runs it on a free worker context (run) and only then queues
// the finished chain for the writer, the one step that can block on it.
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

	pending := make(chan *chain, s.opts.Pipeline)
	win := &window{room: make(chan struct{}, 1)}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(c, pending, win)
	}()

	br := bufio.NewReaderSize(c, 64<<10)
	for open := true; open; {
		// Room first: a reader runs at most Pipeline requests ahead of its
		// writer, plus the burst it is about to read.
		win.wait(int64(s.opts.Pipeline))
		ch := s.getChain()
		for ch.n < maxChain {
			j := &ch.jobs[ch.n]
			payload, err := wire.ReadFrameInto(br, s.opts.MaxFrame, j.payload)
			if err != nil {
				open = false
				break
			}
			j.payload = payload
			if derr := wire.DecodeRequestInto(payload, &j.req, &j.scratch); derr != nil {
				// A malformed frame poisons the stream (framing may be lost):
				// answer it, after the requests ahead of it, and hang up.
				s.errors64.Add(1)
				er := wire.Err(wire.CodeProto, derr.Error())
				j.rb, ch.refused, open = s.encodeResp(&er), true, false
				break
			}
			if ch.n++; !wire.FrameBuffered(br) {
				break
			}
		}
		if ch.n == 0 && !ch.refused {
			s.putChain(ch)
			break
		}
		s.run(ch)
		depth := win.held.Add(int64(ch.n))
		for d := depth - int64(ch.n) + 1; d <= depth; d++ {
			s.obs.depth.Observe(uint64(d))
		}
		pending <- ch
	}
	close(pending)
	<-writerDone
}

// window counts the requests a reader has run ahead of its writer, for
// Options.Pipeline. Each side publishes its own change before it looks at
// the other's, so a wake-up is never lost; a spare one costs a recheck.
type window struct {
	held    atomic.Int64
	waiting atomic.Bool
	room    chan struct{}
}

func (w *window) wait(limit int64) {
	for w.held.Load() >= limit {
		if w.waiting.Store(true); w.held.Load() >= limit {
			<-w.room
		}
		w.waiting.Store(false)
	}
}

func (w *window) release(n int) {
	if w.held.Add(-int64(n)); w.waiting.Load() {
		select {
		case w.room <- struct{}{}:
		default:
		}
	}
}

// flushBytes caps how many encoded bytes the writer queues before
// forcing a writev even while more responses are ready: a pipeline of
// large SCANR pages flushes in bounded chunks instead of accumulating
// the whole burst in memory.
const flushBytes = 1 << 20

// writeLoop drains the pending queue in order, a chain at a time — one
// handed off in part is waited for once — queueing each encoded response
// as one writev segment and flushing when no further chain is ready, so a
// pipelined burst costs one syscall. A group-acked write whose epoch is
// not yet durable flushes the batch ahead of it and waits for D here
// (awaitDurable): that delays it and everything behind it on this
// connection, never reorders. On a write error it keeps draining so the
// reader never blocks on a dead connection.
func (s *Server) writeLoop(c net.Conn, pending chan *chain, win *window) {
	var (
		segs  = make([][]byte, 0, 64)
		owned = make([]*respBuf, 0, 64)
		// bufs is the writev argument, reset from segs per flush so a
		// connection has one such header, not one per flush.
		bufs   net.Buffers
		queued int
		broken bool
	)
	flush := func() {
		if len(segs) > 0 && !broken {
			bufs = segs
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
	for ch := range pending {
		if ch.shared {
			<-ch.done
		}
		n := ch.n
		if ch.refused {
			n++
		}
		for i := range ch.jobs[:n] {
			rb := ch.jobs[i].rb
			if rb.epoch != 0 {
				s.awaitDurable(rb, flush)
			}
			if broken {
				s.putBuf(rb)
				continue
			}
			segs = append(segs, rb.b)
			owned = append(owned, rb)
			if queued += len(rb.b); queued >= flushBytes {
				flush()
			}
		}
		win.release(ch.n)
		s.putChain(ch)
		if len(pending) == 0 {
			flush()
		}
	}
	flush()
}
