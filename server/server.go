// Package server exposes a silo database over TCP, speaking the
// length-prefixed binary protocol of package wire.
//
// Every request executes as a one-shot serializable transaction on one of
// the database's workers. The server runs one executor goroutine per
// worker (Silo's one-worker-per-core model); requests from all connections
// funnel into a shared dispatch queue, so an idle worker picks up the next
// work regardless of which connection it arrived on, and conflicts are
// retried transparently by DB.Run before a response is sent.
//
// The unit of work on that queue is a pipelined burst, not a request. A
// connection's reader decodes every frame already complete in its read
// buffer, links the jobs into a chain and hands the chain to a worker
// with one send (a lone request is a chain of one; a chain holds at most
// 16 jobs; a worker that a chain has kept busy for a while passes the
// rest to an idle peer). The worker runs the chain in order and
// completes each job individually, so everything
// downstream still sees requests: the per-connection in-order queue the
// writer drains, writev batching of ready responses, durable acks, TRACE
// and slow-op capture. The path is
//
//	reader → chain → worker → per-job done → writer
//
// and a request's queue time (silo_server_queue_ns) runs from its
// chain's dispatch to its own start, so it includes the time spent behind
// earlier jobs of the same chain.
//
// There is one way through that path. Every request — plain, sent as a
// TRACE frame, or force-traced by slow-op capture — runs on its worker's
// recycled exec state (exec.go) and leaves the worker as an encoded frame
// in a pooled buffer, the only form a response takes on its way to the
// writer. Writes are acknowledged in one of two modes (AckMode): at
// in-memory commit, or, on a durable database, once the commit epoch is
// durable. In the second mode the worker stamps the finished frame with
// its commit epoch and moves on; the connection writer, which owns
// response order, sends the frames ahead of it and then waits for the
// durable epoch to cover the stamp (release.go). No worker ever waits for
// an fsync. A TRACER's Fsync span is therefore what its client waited,
// not what a worker did: the time from stamp to release, added to the
// frame in place, and zero under immediate acks. Conflicts retry inside
// DB.Run; there is no other retry policy.
//
// Responses are written back on each connection in request order, which
// lets clients pipeline.
package server

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"silo"
	"silo/wire"
)

// Options configures a Server.
type Options struct {
	// Addr is the listen address for ListenAndServe (e.g. ":4555").
	Addr string
	// MaxFrame caps accepted request payloads and the scan responses the
	// server will build: a SCAN or ISCAN whose page would not fit is
	// answered with CodeInvalid instead of a frame a client with the same
	// cap must reject (default wire.MaxFrame, the client's default too).
	MaxFrame int
	// Pipeline is the per-connection cap on in-flight requests; a reader
	// that runs ahead of its writer by this many requests blocks (default
	// 128).
	Pipeline int
	// MaxScan caps the rows returned by one SCAN or ISCAN; requests may
	// ask for less, never more (default 65536).
	MaxScan int
	// DisableAutoCreate makes requests against unknown tables fail with
	// CodeNoTable instead of creating the table on first use. Durability
	// deployments should pre-create tables (table IDs are part of the log
	// format) and set this.
	DisableAutoCreate bool
	// SlowThreshold force-traces every request when set: any op whose
	// client-visible latency (queue wait included) meets or exceeds it is
	// captured — span timeline, table, outcome — into a bounded
	// recent-slow buffer served at /debug/slow. Zero disables capture
	// (and its tracing overhead).
	SlowThreshold time.Duration
	// Acks selects when write responses are released to clients (see
	// AckMode). The zero value, AckImmediate, keeps the historical
	// ack-at-memory-commit behavior; AckGroup gives the paper's §4.10
	// guarantee — an OK frame means the write's epoch is durable —
	// without blocking workers. AckGroup requires the database to have
	// durability; without it it degrades to AckImmediate (there is no
	// durable epoch to wait for).
	Acks AckMode
	// noReuse selects memory, not code: a fresh job, response buffer and
	// exec state per request instead of the recycled ones, so each
	// request runs the one executor on memory nothing else has touched.
	// It exists for the recycling safety tests, which compare a recycled
	// server's response bytes against this build's, and is deliberately
	// unexported.
	noReuse bool
}

// Server serves a silo.DB over TCP.
type Server struct {
	db   *silo.DB
	opts Options
	// jobs carries chains of requests (see job.next) from connection
	// readers to executors; idle counts the executors blocked on it.
	jobs chan *job
	idle atomic.Int32

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	connWG   sync.WaitGroup
	workerWG sync.WaitGroup

	// Connections accepted, frames executed (a TXN counts once) and ERR
	// responses sent: the silo_server_{conns,requests,errors}_total families.
	conns64    atomic.Uint64
	requests64 atomic.Uint64
	errors64   atomic.Uint64

	// wobs are the per-executor metrics shards; obs holds the shared
	// cells. Both are scraped by STATS frames and the admin endpoint.
	wobs []*workerObs
	obs  serverObs

	// slow is the bounded ring of recent slow-op captures (see
	// Options.SlowThreshold), served at /debug/slow.
	slow slowBuf

	// ackMode is the effective ack mode (Options.Acks degraded to
	// AckImmediate when the database has no durability).
	ackMode AckMode
}

// New creates a server for db and starts its per-worker executors. The
// caller still owns db and must not drive the workers concurrently with
// the server (the server's executors are the worker goroutines).
func New(db *silo.DB, opts Options) *Server {
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = wire.MaxFrame
	}
	if opts.Pipeline <= 0 {
		opts.Pipeline = 128
	}
	if opts.MaxScan <= 0 {
		opts.MaxScan = 65536
	}
	s := &Server{
		db:        db,
		opts:      opts,
		jobs:      make(chan *job, db.Workers()),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	s.wobs = make([]*workerObs, db.Workers())
	for i := range s.wobs {
		s.wobs[i] = &workerObs{}
	}
	s.ackMode = opts.Acks
	if _, err := db.Recover(); err != nil {
		// Recover fails only without durability: no durable epoch to wait for.
		s.ackMode = AckImmediate
	}
	for i := 0; i < db.Workers(); i++ {
		s.workerWG.Add(1)
		go s.workerLoop(i)
	}
	return s
}

// ListenAndServe listens on Options.Addr and serves until Close.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close (which returns nil) or an
// accept error. Multiple Serve calls on different listeners may run
// concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: closed")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		id := s.conns64.Add(1)
		go s.handleConn(c, id)
	}
}

// Close stops the server: listeners and connections are closed, in-flight
// requests finish, executors exit. The database is left open. It may also
// have been closed first: a writer waiting for a group-acked write's epoch
// returns once the database's final log drain has run.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	// Executors keep draining until every connection handler has flushed
	// its queued jobs, so readers blocked on a full dispatch queue make
	// progress and exit.
	s.connWG.Wait()
	close(s.jobs)
	s.workerWG.Wait()
	return nil
}

// AckMode reports the server's effective ack mode (Options.Acks, degraded
// to AckImmediate when the database has no durability).
func (s *Server) AckMode() AckMode { return s.ackMode }

// Addr returns the address of one active listener, or "".
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ln := range s.listeners {
		return ln.Addr().String()
	}
	return ""
}
