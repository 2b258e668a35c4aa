// Package client is a Go client for the silo network server (package
// server), speaking the length-prefixed binary protocol of package wire.
//
// A Client multiplexes requests over a small pool of TCP connections.
// Each connection pipelines: any number of goroutines may issue requests
// concurrently, requests are written back-to-back without waiting for
// responses — frames from callers that arrive together leave in one
// write — and the server answers in order, so one connection sustains
// many in-flight one-shot transactions. Calls block until their response
// arrives (closed loop per calling goroutine).
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

// conn is one pipelined TCP connection. Callers append their frame to
// wbuf and enqueue their waiter under the mutex, so the FIFO of waiters
// matches the order requests hit the wire; whichever caller finds no
// flush running becomes the flusher and writes everything that has
// accumulated — its own frame and any appended meanwhile — one nc.Write
// per pass, so a burst of concurrent callers costs one syscall. A single
// reader goroutine delivers responses to waiters in order.
type conn struct {
	nc net.Conn

	mu       sync.Mutex
	wbuf     []byte // frames appended, not yet handed to nc.Write
	spare    []byte // the other half of the double buffer
	flushing bool   // a caller is in flush; it will write wbuf
	pending  chan *waiter
	broken   bool
	err      error
}

// waiter is one caller's parked round trip: the reader (or fail) fills
// the slot and signals done exactly once, the caller takes the result
// and returns the waiter to the pool.
type waiter struct {
	done chan struct{} // buffered, so the reader never blocks on a caller
	resp wire.Response
	err  error
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
	// 1024 waiters: the pipeline depth at which a call fails fast instead
	// of queueing deeper (see roundTrip).
	c := &conn{nc: nc, pending: make(chan *waiter, 1024)}
	go c.readLoop(maxFrame)
	return c
}

func (c *conn) roundTrip(req *wire.Request) (wire.Response, error) {
	c.mu.Lock()
	if c.broken {
		err := c.err
		c.mu.Unlock()
		return wire.Response{}, err
	}
	buf, err := wire.AppendRequest(c.wbuf, req)
	if err != nil {
		c.mu.Unlock()
		return wire.Response{}, err
	}
	// The waiter must be enqueued before any request byte can reach the
	// wire, or a fast server could respond while no waiter is queued. The
	// send is non-blocking: hitting the cap means a thousand in-flight
	// requests on one connection, where failing fast (without poisoning
	// the connection — the frame is dropped from wbuf again) beats
	// queueing deeper.
	w := waiterPool.Get().(*waiter)
	select {
	case c.pending <- w:
	default:
		c.mu.Unlock()
		waiterPool.Put(w)
		return wire.Response{}, errors.New("client: pipeline depth exceeded")
	}
	c.wbuf = buf
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

// flush writes wbuf until it is empty; called with c.mu held, returns
// with it released. While the write runs outside the mutex, callers
// append to the other buffer. When other requests are already in flight
// their callers tend to wake together (the server answers a burst with
// one write), so the flusher yields once to let the just-woken ones
// append first; a lone request never pays the yield.
func (c *conn) flush() {
	c.flushing = true
	if len(c.pending) > 1 {
		c.mu.Unlock()
		runtime.Gosched()
		c.mu.Lock()
	}
	for len(c.wbuf) > 0 && !c.broken {
		out := c.wbuf
		c.wbuf = c.spare[:0]
		c.mu.Unlock()
		_, err := c.nc.Write(out)
		if err != nil {
			// Every queued waiter fails, this caller's own and those whose
			// bytes were only buffered; fail pops each from pending once.
			c.fail(err)
		}
		c.mu.Lock()
		c.spare = out
	}
	c.flushing = false
	c.mu.Unlock()
}

func (c *conn) readLoop(maxFrame int) {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
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
		select {
		case w := <-c.pending:
			w.resp = resp
			w.done <- struct{}{}
		default:
			c.fail(errors.New("client: response without matching request"))
			return
		}
	}
}

// fail marks the connection broken, closes it, and wakes every waiter
// with the connection's error.
func (c *conn) fail(err error) {
	c.mu.Lock()
	if c.broken {
		c.mu.Unlock()
		return
	}
	c.broken = true
	c.err = err
	c.mu.Unlock()
	c.nc.Close()
	// No waiter joins pending once broken is set, and each is received
	// here or by the reader, never both: exactly one signal per waiter.
	for {
		select {
		case w := <-c.pending:
			w.err = err
			w.done <- struct{}{}
		default:
			return
		}
	}
}
