// Package client is a Go client for the silo network server (package
// server), speaking the length-prefixed binary protocol of package wire.
//
// A Client multiplexes requests over a small pool of TCP connections.
// Each connection pipelines: any number of goroutines may issue requests
// concurrently, requests are written back-to-back without waiting for
// responses, and the server answers in order, so one connection sustains
// many in-flight one-shot transactions. Calls block until their response
// arrives (closed loop per calling goroutine).
//
// A connection's reader completes responses a burst at a time: every
// response already complete in its read buffer, matched to the oldest
// queued callers under one lock and woken in order. The callers of a
// burst tend to send their next requests together, so the reader holds
// the write for them: the last of them to append writes every follow-up
// in one syscall, and if some do not come back, the reader writes what
// the others appended. The reader writes only while the bytes of every
// unanswered request fit well inside the socket's send buffer, so its
// write can never block; otherwise a caller writes, as a caller always
// may. A reader blocked in a write would deadlock against a server
// blocked writing to it.
//
// All methods are safe for concurrent use. Returned byte slices are
// freshly owned by the caller.
package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"silo"
	"silo/wire"
)

// Sentinel errors mapped from server ERR responses; test with errors.Is.
// Each wraps the corresponding silo sentinel, so a check like
// errors.Is(err, silo.ErrNotFound) holds end to end — the same code works
// against an embedded DB and over the wire, with no string matching.
var (
	ErrNotFound  = fmt.Errorf("client: %w", silo.ErrNotFound)
	ErrKeyExists = fmt.Errorf("client: %w", silo.ErrKeyExists)
	ErrConflict  = fmt.Errorf("client: %w", silo.ErrConflict)
	ErrInvalid   = fmt.Errorf("client: %w", silo.ErrKeyInvalid)
	ErrNoTable   = fmt.Errorf("client: %w", silo.ErrNoTable)
	ErrNoIndex   = fmt.Errorf("client: %w", silo.ErrNoIndex)
	// ErrNotCovering reports a covering scan of an index that was declared
	// without an include list.
	ErrNotCovering = fmt.Errorf("client: %w", silo.ErrNotCovering)
	ErrBadValue    = errors.New("client: value too short to hold a counter")
	ErrClosed      = errors.New("client: connection closed")
)

// ServerError is a server-reported failure that does not map to a
// sentinel (internal and protocol errors).
type ServerError struct {
	Code wire.ErrCode
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("client: server error (%v): %s", e.Code, e.Msg)
}

func codeError(code wire.ErrCode, msg string) error {
	switch code {
	case wire.CodeNotFound:
		return ErrNotFound
	case wire.CodeKeyExists:
		return ErrKeyExists
	case wire.CodeConflict:
		return ErrConflict
	case wire.CodeInvalid:
		return ErrInvalid
	case wire.CodeBadValue:
		return ErrBadValue
	case wire.CodeNoTable:
		return ErrNoTable
	case wire.CodeNoIndex:
		return ErrNoIndex
	case wire.CodeNotCovering:
		return ErrNotCovering
	}
	return &ServerError{Code: code, Msg: msg}
}

// Options configures a Client.
type Options struct {
	// Conns is the connection pool size (default 1). Calls are spread
	// round-robin; more connections add parallelism on the server's
	// response path, while pipelining already overlaps requests on one.
	Conns int
	// MaxFrame caps accepted response payloads (default wire.MaxFrame).
	MaxFrame int
}

// dialTimeout bounds each connection's dial.
const dialTimeout = 5 * time.Second

// Client is a pooled, pipelining connection to one server.
type Client struct {
	opts  Options
	conns []*conn
	next  atomic.Uint64

	mu     sync.Mutex
	closed bool
}

// Dial connects to a server.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.Conns <= 0 {
		opts.Conns = 1
	}
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = wire.MaxFrame
	}
	cl := &Client{opts: opts}
	for i := 0; i < opts.Conns; i++ {
		c, err := dialConn(addr, opts)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.conns = append(cl.conns, c)
	}
	return cl, nil
}

// Close closes all pooled connections. In-flight calls fail with
// ErrClosed.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	cl.mu.Unlock()
	for _, c := range cl.conns {
		c.fail(ErrClosed)
	}
	return nil
}

func (cl *Client) conn() *conn {
	n := cl.next.Add(1)
	return cl.conns[n%uint64(len(cl.conns))]
}

func (cl *Client) roundTrip(req *wire.Request) (wire.Response, error) {
	return cl.conn().roundTrip(req)
}

// ---------------------------------------------------------------------------
// Operations

// Get returns the value stored for key, or ErrNotFound.
func (cl *Client) Get(table string, key []byte) ([]byte, error) {
	resp, err := cl.roundTrip(&wire.Request{Ops: []wire.Op{
		{Kind: wire.KindGet, Table: table, Key: key},
	}})
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindValue {
		return nil, unexpected(resp)
	}
	return resp.Value, nil
}

// Put replaces the value of an existing key (ErrNotFound if absent).
func (cl *Client) Put(table string, key, value []byte) error {
	return cl.expectOK(&wire.Request{Ops: []wire.Op{
		{Kind: wire.KindPut, Table: table, Key: key, Value: value},
	}})
}

// Insert stores a new key (ErrKeyExists if present).
func (cl *Client) Insert(table string, key, value []byte) error {
	return cl.expectOK(&wire.Request{Ops: []wire.Op{
		{Kind: wire.KindInsert, Table: table, Key: key, Value: value},
	}})
}

// Delete removes a key (ErrNotFound if absent).
func (cl *Client) Delete(table string, key []byte) error {
	return cl.expectOK(&wire.Request{Ops: []wire.Op{
		{Kind: wire.KindDelete, Table: table, Key: key},
	}})
}

// Add atomically adds delta to the big-endian counter in the first 8
// bytes of the value stored at key — a serializable read-modify-write in
// one round trip — and returns the new counter. Trailing value bytes are
// preserved.
func (cl *Client) Add(table string, key []byte, delta int64) (uint64, error) {
	resp, err := cl.roundTrip(&wire.Request{Ops: []wire.Op{
		{Kind: wire.KindAdd, Table: table, Key: key, Delta: delta},
	}})
	if err != nil {
		return 0, err
	}
	if resp.Kind != wire.KindValue || len(resp.Value) != 8 {
		return 0, unexpected(resp)
	}
	return beUint64(resp.Value), nil
}

// Scan returns up to limit key/value pairs in [lo, hi), in key order, as
// one serializable transaction. A nil or empty lo means the start of the
// table; a nil hi means its end; limit <= 0 requests the server's cap.
func (cl *Client) Scan(table string, lo, hi []byte, limit int) ([]wire.KV, error) {
	if len(lo) == 0 {
		lo = []byte{0} // smallest valid key: engine keys are non-empty
	}
	op := wire.Op{Kind: wire.KindScan, Table: table, Key: lo}
	if hi != nil {
		op.HasHi = true
		op.Hi = hi
	}
	if limit > 0 {
		op.Limit = uint32(limit)
	}
	resp, err := cl.roundTrip(&wire.Request{Ops: []wire.Op{op}})
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindScanR {
		return nil, unexpected(resp)
	}
	return resp.Pairs, nil
}

// CreateIndex declares a secondary index named index over table, with a
// declarative fixed-segment key spec (the secondary key is the
// concatenation of the segments, each taken from the primary key or the
// row value). The server backfills existing rows before replying; from
// then on the index is maintained inside every transaction that writes the
// table. Creation is idempotent for an identical declaration.
//
// Include segments make the index covering: they name fixed-position row
// fields whose bytes ride in every index entry, so IndexScanCovering
// serves them without the server touching the primary table. The include
// list is part of the declaration — recovery on the server rejects a
// re-declaration whose include list no longer matches the logged entries.
func (cl *Client) CreateIndex(index, table string, unique bool, segs []wire.IndexSeg, include ...wire.IndexSeg) error {
	return cl.expectOK(&wire.Request{Ops: []wire.Op{{
		Kind:   wire.KindCreateIndex,
		Index:  index,
		Table:  table,
		Unique: unique,
		Segs:   segs,
		Incs:   include,
	}}})
}

// DropIndex drops the named secondary index. The drop is logged DDL:
// after recovery the index stays dropped, and a later CreateIndex may
// reuse the name. Dropping an unknown name returns ErrNoIndex.
func (cl *Client) DropIndex(index string) error {
	return cl.expectOK(&wire.Request{Ops: []wire.Op{{
		Kind:  wire.KindDropIndex,
		Index: index,
	}}})
}

// Schema returns the server's schema catalog: every table (id, name) and
// every index declaration (uniqueness, key-spec segments with transforms,
// covering include lists, or an opaque marker for an index whose segments
// the wire cannot carry). One round trip reconstructs the full
// DDL state — what CreateIndex calls would reproduce it elsewhere.
func (cl *Client) Schema() (*wire.Schema, error) {
	resp, err := cl.roundTrip(&wire.Request{Ops: []wire.Op{{Kind: wire.KindSchema}}})
	if err != nil {
		return nil, err
	}
	if resp.Kind == wire.KindErr {
		return nil, codeError(resp.Code, resp.Msg)
	}
	if resp.Kind != wire.KindSchemaR || resp.Schema == nil {
		return nil, unexpected(resp)
	}
	return resp.Schema, nil
}

// Stats fetches one metrics snapshot from the server: engine commit and
// abort counters (with abort-reason and per-table breakdowns), commit-phase
// and WAL fsync latency histograms, group-commit batch sizes, index
// scan-resolution modes, checkpoint and recovery figures, and the server's
// own per-opcode request latencies. The snapshot arrives in the versioned
// binary form of the STATSR frame, decoded with strict validation; use
// its Value/Get accessors, or render it with WritePrometheus.
func (cl *Client) Stats() (*silo.ObsSnapshot, error) {
	resp, err := cl.roundTrip(&wire.Request{Ops: []wire.Op{{Kind: wire.KindStats}}})
	if err != nil {
		return nil, err
	}
	if resp.Kind == wire.KindErr {
		return nil, codeError(resp.Code, resp.Msg)
	}
	if resp.Kind != wire.KindStatsR || resp.Stats == nil {
		return nil, unexpected(resp)
	}
	return resp.Stats, nil
}

// IndexScan returns up to limit index entries with entry keys in [lo, hi),
// each resolved to its primary row, as one serializable transaction with
// phantom protection on both the index and the table (snapshot true
// instead reads a recent consistent snapshot). A nil or empty lo means the
// start of the index; a nil hi means its end; limit <= 0 requests the
// server's cap. Unknown index names return ErrNoIndex.
func (cl *Client) IndexScan(index string, lo, hi []byte, limit int, snapshot bool) ([]wire.IndexEntry, error) {
	return cl.indexScan(index, lo, hi, limit, snapshot, false)
}

// IndexScanCovering is IndexScan served entirely from a covering index's
// entry values: each returned entry's Value holds the index's included
// fields (in include-list order) instead of the full row, and the server
// never resolves the primary table. The index must have been created with
// an include list (ErrNotCovering otherwise).
func (cl *Client) IndexScanCovering(index string, lo, hi []byte, limit int, snapshot bool) ([]wire.IndexEntry, error) {
	return cl.indexScan(index, lo, hi, limit, snapshot, true)
}

func (cl *Client) indexScan(index string, lo, hi []byte, limit int, snapshot, covering bool) ([]wire.IndexEntry, error) {
	op := wire.Op{Kind: wire.KindIScan, Index: index, Key: lo, Snapshot: snapshot, Covering: covering}
	if hi != nil {
		op.HasHi = true
		op.Hi = hi
	}
	if limit > 0 {
		op.Limit = uint32(limit)
	}
	resp, err := cl.roundTrip(&wire.Request{Ops: []wire.Op{op}})
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindIScanR {
		return nil, unexpected(resp)
	}
	return resp.Entries, nil
}

func (cl *Client) expectOK(req *wire.Request) error {
	resp, err := cl.roundTrip(req)
	if err != nil {
		return err
	}
	if resp.Kind != wire.KindOK {
		return unexpected(resp)
	}
	return nil
}

func unexpected(resp wire.Response) error {
	if resp.Kind == wire.KindErr {
		return codeError(resp.Code, resp.Msg)
	}
	return fmt.Errorf("client: unexpected %v response", resp.Kind)
}

func beUint64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// ---------------------------------------------------------------------------
// Multi-op transactions

// Result is the per-op outcome of a committed transaction; Get and Add
// ops carry a value.
type Result = wire.TxnResult

// Txn accumulates operations to run as one serializable one-shot
// transaction in a single round trip. Either every op commits or none do;
// any op error (e.g. a Get of a missing key) aborts the whole
// transaction. A Txn is not safe for concurrent use and must not be
// reused after Exec.
type Txn struct {
	cl  *Client
	ops []wire.Op
}

// Txn starts an empty transaction.
func (cl *Client) Txn() *Txn { return &Txn{cl: cl} }

// Get reads a key; its value lands in the corresponding Result.
func (t *Txn) Get(table string, key []byte) *Txn {
	t.ops = append(t.ops, wire.Op{Kind: wire.KindGet, Table: table, Key: key})
	return t
}

// Put replaces the value of an existing key.
func (t *Txn) Put(table string, key, value []byte) *Txn {
	t.ops = append(t.ops, wire.Op{Kind: wire.KindPut, Table: table, Key: key, Value: value})
	return t
}

// Insert stores a new key.
func (t *Txn) Insert(table string, key, value []byte) *Txn {
	t.ops = append(t.ops, wire.Op{Kind: wire.KindInsert, Table: table, Key: key, Value: value})
	return t
}

// Delete removes a key.
func (t *Txn) Delete(table string, key []byte) *Txn {
	t.ops = append(t.ops, wire.Op{Kind: wire.KindDelete, Table: table, Key: key})
	return t
}

// Add adds delta to the counter in the first 8 bytes of the value at key;
// the new counter lands in the corresponding Result.
func (t *Txn) Add(table string, key []byte, delta int64) *Txn {
	t.ops = append(t.ops, wire.Op{Kind: wire.KindAdd, Table: table, Key: key, Delta: delta})
	return t
}

// Exec runs the transaction and returns one Result per op, in order.
func (t *Txn) Exec() ([]Result, error) {
	if len(t.ops) == 0 {
		return nil, nil
	}
	resp, err := t.cl.roundTrip(&wire.Request{Txn: true, Ops: t.ops})
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindTxnR {
		return nil, unexpected(resp)
	}
	return resp.Results, nil
}

// Trace is Exec with span capture: the server executes the transaction
// traced and the response carries its span timeline — queue wait,
// statement execution across OCC retries, commit validation, log
// handoff, group-commit fsync wait (on durable servers the transaction
// is released only once its epoch is durable, so the timeline covers
// the true client-visible commit point), and result assembly — plus
// the commit TID and retry count. One TRACE round trip prices each
// stage of exactly this transaction; sample a fraction of production
// traffic through it to see where latency lives.
func (t *Txn) Trace() ([]Result, *silo.TxnSpans, error) {
	if len(t.ops) == 0 {
		return nil, nil, nil
	}
	resp, err := t.cl.roundTrip(&wire.Request{Txn: true, Trace: true, Ops: t.ops})
	if err != nil {
		return nil, nil, err
	}
	if resp.Kind != wire.KindTraceR || resp.Spans == nil {
		return nil, nil, unexpected(resp)
	}
	return resp.Results, resp.Spans, nil
}

// ---------------------------------------------------------------------------
// Connection

// maxDepth is the pipeline depth at which a call fails fast instead of
// queueing deeper (see roundTrip): the capacity of a connection's ring of
// waiters.
const maxDepth = 1024

// maxBurst caps the responses the reader completes under one lock.
const maxBurst = 64

var errDepth = errors.New("client: pipeline depth exceeded")

// conn is one pipelined TCP connection. Callers append their frame to
// wbuf and their waiter to the ring under the mutex, so the ring's order
// is the order requests hit the wire; whichever caller finds no write
// under way becomes the flusher and writes everything that has
// accumulated — its own frame and any appended meanwhile — one nc.Write
// per pass.
//
// A single reader goroutine completes responses a burst at a time (see
// readLoop). When a burst wakes several callers, the reader takes the
// flusher's role before it wakes them, so their follow-up requests only
// append, and owes the role to the last of them: the append that settles
// the burst takes the role over and writes every follow-up in one pass. A
// caller that does not come back leaves the reader to write what the
// others appended (readerFlush).
//
// The reader must never block in Write: stuck there while the server's
// writer is stuck on this connection's full receive buffer, neither side
// would read again. So the reader writes only while the frames of every
// unanswered request, those it is about to send included, fit in sendMax
// bytes, a quarter of the send buffer the kernel reported at dial:
// however little of them the server has read, the kernel holds them all.
// An append that passes the bound takes the role over (after a write the
// reader has under way ends); its caller, not the reader, writes.
type conn struct {
	nc      net.Conn
	sendMax int // the reader's write bound; 0: the reader never writes

	mu         sync.Mutex
	wbuf       []byte    // frames appended, not yet handed to nc.Write
	spare      []byte    // the other half of the double buffer
	inbuf      int       // frames in wbuf
	flushing   bool      // the flusher's role is taken: a caller's or the reader's
	reader     bool      // the role is the reader's
	owed       int       // while it is: appends until a caller takes it over
	writing    bool      // the reader is in nc.Write
	handback   sync.Cond // callers taking the role over, waiting for writing to end
	ring       [maxDepth]*waiter
	head, n    int // the queued waiters: ring[head], … n of them
	unanswered int // frame bytes of the queued waiters
	broken     bool
	err        error
}

// waiter is one caller's parked round trip: the reader (or fail) fills
// the slot and signals done exactly once, the caller takes the result
// and returns the waiter to the pool.
type waiter struct {
	done chan struct{} // buffered, so the reader never blocks on a caller
	resp wire.Response
	err  error
	size int // the request frame's bytes
}

var waiterPool = sync.Pool{New: func() any { return &waiter{done: make(chan struct{}, 1)} }}

func dialConn(addr string, opts Options) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newConn(nc, opts.MaxFrame), nil
}

func newConn(nc net.Conn, maxFrame int) *conn {
	c := &conn{nc: nc, sendMax: sendBuffer(nc) / 4}
	c.handback.L = &c.mu
	go c.readLoop(maxFrame)
	return c
}

// sendBuffer returns the send buffer size the kernel reports for nc's
// socket, 0 for a connection without one.
func sendBuffer(nc net.Conn) int {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return 0
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return 0
	}
	return sockSendBuffer(raw)
}

func (c *conn) roundTrip(req *wire.Request) (wire.Response, error) {
	c.mu.Lock()
	if c.broken {
		err := c.err
		c.mu.Unlock()
		return wire.Response{}, err
	}
	// A full ring means a thousand in-flight requests on one connection,
	// where failing fast — before the frame is appended, so the connection
	// stays usable — beats queueing deeper.
	if c.n == maxDepth {
		c.mu.Unlock()
		return wire.Response{}, errDepth
	}
	buf, err := wire.AppendRequest(c.wbuf, req)
	if err != nil {
		c.mu.Unlock()
		return wire.Response{}, err
	}
	// The waiter is queued before any byte of the frame can reach the
	// wire, or a fast server could respond while no waiter is queued.
	w := waiterPool.Get().(*waiter)
	w.size = len(buf) - len(c.wbuf)
	c.wbuf = buf
	c.inbuf++
	c.ring[(c.head+c.n)%maxDepth] = w
	c.n++
	c.unanswered += w.size
	if c.reader {
		if c.owed--; c.owed <= 0 || c.unanswered > c.sendMax {
			c.takeOver()
		}
	}
	if c.flushing {
		c.mu.Unlock()
	} else {
		c.flush()
	}

	<-w.done
	resp, err := w.resp, w.err
	w.resp, w.err = wire.Response{}, nil
	waiterPool.Put(w)
	return resp, err
}

// pop takes the oldest waiter off the ring; called with c.mu held.
func (c *conn) pop() *waiter {
	w := c.ring[c.head]
	c.ring[c.head] = nil
	c.head = (c.head + 1) % maxDepth
	c.n--
	c.unanswered -= w.size
	return w
}

// flush writes wbuf until it is empty; called with c.mu held by a caller
// that found no write under way, returns with it released. While a write
// runs outside the mutex, callers append to the other buffer.
func (c *conn) flush() {
	c.flushing = true
	for len(c.wbuf) > 0 && !c.broken {
		c.writeOut()
	}
	c.flushing = false
	c.mu.Unlock()
}

// takeOver frees the reader's role for the calling caller, which then
// finds no flusher and writes: once the burst it was owed is settled, or
// once the unanswered frames outgrow the reader's bound. A write the
// reader has under way ends first. Called with c.mu held.
func (c *conn) takeOver() {
	for c.writing {
		c.handback.Wait()
	}
	if c.reader {
		c.reader, c.flushing = false, false
	}
}

// readerFlush is the reader's write, after the callers of a burst it holds
// the role for have had their turn: called with c.mu held, it writes what
// they appended while the role is still its own and every unanswered
// frame fits sendMax. It keeps the role for the callers still owed while
// responses are due — the last of them takes it over, or the next burst
// finds it — and gives it up otherwise, since no response would bring the
// reader back to write what they append. Returns with c.mu released.
func (c *conn) readerFlush() {
	for c.reader && len(c.wbuf) > 0 && !c.broken && c.unanswered <= c.sendMax {
		c.writing = true
		c.writeOut()
		c.writing = false
		c.handback.Broadcast()
	}
	if c.reader && (c.n == c.inbuf || c.broken) {
		c.reader, c.flushing = false, false
	}
	c.mu.Unlock()
}

// writeOut hands wbuf to one nc.Write outside the mutex; called and
// returns with c.mu held.
func (c *conn) writeOut() {
	out := c.wbuf
	c.wbuf, c.inbuf = c.spare[:0], 0
	c.mu.Unlock()
	if _, err := c.nc.Write(out); err != nil {
		// Every queued waiter fails, the writer's own and those whose
		// bytes were only buffered; fail takes each off the ring once.
		c.fail(err)
	}
	c.mu.Lock()
	c.spare = out
}

// readLoop completes responses a burst at a time: the frame it waited for
// and every frame already complete behind it in the read buffer. It takes
// the burst's waiters off the ring in one critical section and wakes each
// in order. A burst that wakes several callers is one whose follow-ups
// should leave together: the reader takes the flusher's role before the
// wake-ups, owing it to the burst's callers, and yields once so those it
// has just readied on its processor run and append; what the callers
// still owed have not settled by then it writes itself (readerFlush).
func (c *conn) readLoop(maxFrame int) {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var (
		resps []wire.Response
		burst []*waiter
	)
	for {
		resps = resps[:0]
		for len(resps) == 0 || len(resps) < maxBurst && wire.FrameBuffered(br) {
			payload, err := wire.ReadFrame(br, maxFrame)
			if err != nil {
				c.fail(fmt.Errorf("client: read: %w", err))
				return
			}
			resp, err := wire.DecodeResponse(payload)
			if err != nil {
				c.fail(fmt.Errorf("client: decode: %w", err))
				return
			}
			resps = append(resps, resp)
		}
		c.mu.Lock()
		burst = burst[:0]
		for len(burst) < len(resps) && c.n > 0 {
			burst = append(burst, c.pop())
		}
		stray := len(burst) < len(resps)
		// A role the reader still holds from an earlier burst is renewed:
		// its frames go out with this burst's.
		hold := !stray && c.sendMax > 0 && c.unanswered <= c.sendMax &&
			(c.reader || !c.flushing && len(burst) > 1)
		if hold {
			c.flushing, c.reader, c.owed = true, true, len(burst)
		}
		c.mu.Unlock()
		for i, w := range burst {
			w.resp = resps[i]
			w.done <- struct{}{}
			burst[i], resps[i] = nil, wire.Response{}
		}
		if stray {
			c.fail(errors.New("client: response without matching request"))
			return
		}
		if hold {
			runtime.Gosched()
			c.mu.Lock()
			c.readerFlush()
		}
	}
}

// fail marks the connection broken, closes it, and wakes every queued
// waiter with the connection's error.
func (c *conn) fail(err error) {
	c.mu.Lock()
	if c.broken {
		c.mu.Unlock()
		return
	}
	c.broken = true
	c.err = err
	// No waiter joins the ring once broken is set, and each leaves it here
	// or in the reader's burst, never both: exactly one signal per waiter.
	queued := make([]*waiter, 0, c.n)
	for c.n > 0 {
		queued = append(queued, c.pop())
	}
	c.mu.Unlock()
	c.nc.Close()
	for _, w := range queued {
		w.err = err
		w.done <- struct{}{}
	}
}
