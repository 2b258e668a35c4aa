// Package server exposes a silo database over TCP, speaking the
// length-prefixed binary protocol of package wire.
//
// Every request executes as a one-shot serializable transaction, run to
// completion by the goroutine that read it on one of the database's
// workers (Silo's requests-to-completion model, with no hop in between);
// conflicts retry inside DB.Run, the only retry policy. The server pools
// one worker context per database worker, and whichever connection has
// work next takes a free one.
//
// The unit of work is a pipelined burst: every frame already complete in
// a connection's read buffer (at most 16; a lone request is a burst of
// one). The reader takes a free context — waiting if all are busy — runs
// the burst in order on it, returns it before anything can block, and
// queues the finished chain for the connection's writer, which sends its
// responses in request order with one writev when nothing else is ready:
//
//	reader (decode → run on a context) → pending → writer
//
// A chain that has held its context for a while (scans, big transactions,
// retries) while two others are free hands its rest to a helper goroutine
// on one, so one deeply pipelined connection still uses every core. A
// dispatch (silo_server_dispatches_total) is a burst run or a remainder
// handed off; queue time (silo_server_queue_ns) runs from the decode.
//
// Every request — plain, TRACE, or force-traced by slow-op capture — runs
// on a context's recycled exec state (exec.go) and leaves it as an
// encoded frame in a pooled buffer. Writes are acknowledged (AckMode) at
// in-memory commit or, on a durable database, once their commit epoch is
// durable: then the frame is stamped with its epoch and the writer, which
// owns response order, sends the frames ahead of it and waits for D to
// cover the stamp (release.go). No worker context waits for an fsync, so
// a TRACER's Fsync span is what its client waited: stamp to release,
// added to the frame in place, zero under immediate acks.
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
	// that runs ahead of its writer by this many requests blocks before
	// reading its next burst (default 128).
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
	// request runs the one code path on memory nothing else has touched.
	// It exists for the recycling safety tests, which compare a recycled
	// server's response bytes against this build's, and is deliberately
	// unexported.
	noReuse bool
}

// Server serves a silo.DB over TCP.
type Server struct {
	db   *silo.DB
	opts Options
	// ctxs pools the free worker contexts, one per database worker.
	ctxs chan *execState

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	// connWG counts connection handlers, helpers the chains' helpers.
	connWG  sync.WaitGroup
	helpers sync.WaitGroup

	// Connections accepted, frames executed (a TXN counts once) and ERR
	// responses sent: the silo_server_{conns,requests,errors}_total families.
	conns64    atomic.Uint64
	requests64 atomic.Uint64
	errors64   atomic.Uint64

	// wobs are the per-context metrics shards; obs holds the shared
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

// New creates a server for db with one worker context per database
// worker. The caller still owns db and must not drive the workers
// concurrently with the server (its connections run requests on every
// worker).
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
		ctxs:      make(chan *execState, db.Workers()),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	s.wobs = make([]*workerObs, db.Workers())
	for i := range s.wobs {
		s.wobs[i] = &workerObs{}
		s.ctxs <- newExecState(s, i)
	}
	s.ackMode = opts.Acks
	if _, err := db.Recover(); err != nil {
		// Recover fails only without durability: no durable epoch to wait for.
		s.ackMode = AckImmediate
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

// Close stops the server: listeners and connections are closed and
// in-flight requests finish. The database is left open. It may also
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
	// A handler returns once its writer has taken every chain, each only
	// after its last helper signalled; those may still be exiting.
	s.connWG.Wait()
	s.helpers.Wait()
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
