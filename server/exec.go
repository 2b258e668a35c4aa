package server

import (
	"encoding/binary"
	"errors"
	"time"

	"silo"
	"silo/wire"
)

// chainShare is how long a chain keeps one worker context to itself.
// Handing the rest to a helper costs a goroutine start and a wake-up, a
// few microseconds: not worth it between point requests, which finish a
// whole chain sooner than that, and well worth it once scans, large
// transactions or retries have held the context for tens of microseconds
// while the requests behind them wait.
const chainShare = 50 * time.Microsecond

// run executes a decoded chain on the calling reader's goroutine, one
// dispatch: it takes a free worker context, waiting if all are busy.
func (s *Server) run(c *chain) {
	if c.n == 0 {
		return
	}
	c.enq, c.enqTS = time.Now(), s.now()
	s.prefetch(c)
	s.obs.dispatches.Inc()
	s.runSegment(<-s.ctxs, c, 0, time.Now())
}

// maxPrefetch caps the point keys one chain prefetches: every frame of a
// full chain and then some for multi-op transactions, whose later keys a
// bulk transaction would not reach before they left the cache again.
const maxPrefetch = 2 * maxChain

// prefetch warms what a chain's point operations will read — their tree
// paths, records and values — with one lockstep pass over their keys
// (btree.Tree.Prefetch), when at least two of them name one table: a lone
// lookup has no miss to overlap with. Keys of tables other than the first
// one named are left out. The pass runs after the chain's queue clock has
// started, so the span ledger counts it in queue time.
func (s *Server) prefetch(c *chain) {
	var (
		table string
		buf   [maxPrefetch][]byte
	)
	keys := buf[:0]
	for i := range c.jobs[:c.n] {
		ops := c.jobs[i].req.Ops
		for j := range ops {
			op := &ops[j]
			switch {
			case !isPoint(op.Kind):
			case len(keys) == 0:
				table = op.Table
				keys = append(keys, op.Key)
			case op.Table == table && len(keys) < maxPrefetch:
				keys = append(keys, op.Key)
			}
		}
	}
	if len(keys) < 2 {
		return
	}
	if t := s.db.Table(table); t != nil {
		t.Tree.Prefetch(keys)
	}
}

// runSegment runs c's requests from the one at from on, in order, on
// worker context st taken at start. Once st has run for chainShare while
// two other contexts are free, the rest goes to a helper on one (a
// dispatch too), so one deeply pipelined connection still uses every
// core; the last free context stays for the next reader's burst, which
// would otherwise wait behind the hand-off. Only the reader's segment can
// share first. The segment returns st, then counts its requests off a
// shared chain and lets go of c.
func (s *Server) runSegment(st *execState, c *chain, from int, start time.Time) {
	began, end := start, c.n
	for i := from; i < end; i++ {
		x := st
		if s.opts.noReuse {
			x = newExecState(s, st.w)
		}
		start = s.runJob(x, c, &c.jobs[i], start)
		if i+1 == end || len(s.ctxs) < 2 || start.Sub(began) < chainShare {
			continue
		}
		select {
		case h := <-s.ctxs:
			if !c.shared {
				c.shared = true
				c.left.Store(int32(c.n))
			}
			s.obs.dispatches.Inc()
			s.helpers.Add(1)
			go func(from int) {
				defer s.helpers.Done()
				s.runSegment(h, c, from, time.Now())
			}(i + 1)
			end = i + 1
		default:
		}
	}
	s.requests64.Add(uint64(end - from)) // one shared-counter update per segment
	s.ctxs <- st
	if c.shared && c.left.Add(-int32(end-from)) == 0 {
		c.done <- struct{}{}
	}
}

// runJob executes one request of c, starting at start, leaves its encoded
// response in j.rb, and returns when it finished: the next one's start.
func (s *Server) runJob(st *execState, c *chain, j *job, start time.Time) time.Time {
	o := s.wobs[st.w]
	slowAt := s.opts.SlowThreshold
	if !c.enq.IsZero() {
		o.queue.ObserveDuration(start.Sub(c.enq).Nanoseconds())
	}
	kind := wire.KindTxn
	switch {
	case j.req.Trace:
		kind = wire.KindTrace
	case !j.req.Txn:
		kind = j.req.Ops[0].Kind
	}
	// A TRACE frame is traced because the client asked; with slow-op
	// capture armed, everything is traced so a slow op's timeline is
	// already in hand when it crosses the threshold. Tracing only hands
	// DB.RunTraced a span block, the one in the exec state; a nil one runs
	// the request untraced.
	var sp *silo.TxnSpans
	var t0 time.Duration
	if j.req.Trace || slowAt > 0 {
		sp = &st.spans
		*sp = silo.TxnSpans{}
		t0 = s.now()
		if q := t0 - c.enqTS; q > 0 && !c.enq.IsZero() {
			sp.Queue = q
		}
	}
	resp, rb := s.exec(st, &j.req, sp)
	if sp != nil {
		elapsed := s.now() - t0
		// The engine timed execute/validate/log; what is left of the
		// frame's wall time is table resolution and result assembly — the
		// respond span. Fsync is zero here: no worker waits for
		// durability, and the connection writer adds the wait of a
		// group-acked TRACER.
		if r := elapsed - (sp.Exec + sp.Validate + sp.Log); r > 0 {
			sp.Respond = r
		}
		if j.req.Trace && resp.Kind == wire.KindTxnR {
			resp.Kind = wire.KindTraceR
			resp.Spans = sp
		}
		if total := sp.Queue + elapsed; slowAt > 0 && total >= slowAt {
			op := slowOp{
				At:    t0 + elapsed,
				Kind:  kind,
				Ops:   len(j.req.Ops),
				Total: total,
				Spans: *sp,
			}
			op.Table, op.Tables, op.Counts = slowAttr(j.req.Ops)
			if resp.Kind == wire.KindErr {
				op.Err = resp.Msg
			}
			s.slow.add(op)
		}
	}
	// Latency and counters are recorded at execution time: the
	// latency histogram prices the exec path (queue wait excluded,
	// retries included), while the wait from commit to durable
	// release is the writer's release-lag histogram.
	end := time.Now()
	o.latency[latIdx(kind)].ObserveDuration(end.Sub(start).Nanoseconds())
	if resp.Kind == wire.KindErr {
		s.errors64.Add(1)
	}
	j.rb = s.respond(st.w, &j.req, &resp, rb)
	return end
}

// respond encodes one completed response for the connection writer, on
// the worker context, into a recycled buffer: the response aliases the
// context's exec state, reused for the next request, so the bytes must be
// captured before this function returns (a scan arrives already framed in
// rb). Under AckGroup a write's frame is stamped with its commit epoch,
// which the writer waits on. Reads, snapshot scans, and errors
// are not stamped: an ERR frame acknowledges nothing (the transaction
// aborted), and reads have nothing to make durable. Auto-created tables
// are covered by the data epoch: the catalog record commits (on the DDL
// worker) before the data write's commit, and epochs are monotone, so a
// durable data epoch implies the creation record is durable too.
func (s *Server) respond(w int, req *wire.Request, resp *wire.Response, rb *respBuf) *respBuf {
	if rb == nil {
		rb = s.encodeResp(resp)
	}
	if s.ackMode == AckGroup && resp.Kind != wire.KindErr && writesData(req) {
		// DDL commits on the hidden catalog worker, whose commit epoch is
		// not visible here; it committed before this point, so the current
		// global epoch is a conservative upper bound.
		rb.epoch = s.db.Epoch()
		if !isDDLFrame(req) {
			rb.epoch = s.db.LastCommitEpoch(w)
		}
		rb.at = s.now()
		s.obs.parked.Add(1)
	}
	return rb
}

// encodeResp frames resp into a pooled buffer.
func (s *Server) encodeResp(resp *wire.Response) *respBuf {
	rb := s.getBuf()
	b, err := wire.AppendResponse(rb.b[:0], resp)
	if err != nil {
		// Encoding failure is a server bug; degrade to an ERR frame rather
		// than desynchronizing the stream.
		b, _ = wire.AppendResponse(rb.b[:0], &wire.Response{
			Kind: wire.KindErr, Code: wire.CodeInternal, Msg: err.Error(),
		})
	}
	rb.b = b
	return rb
}

// writesData reports whether a frame's success implies a committed write
// whose durability gates the response. Pure reads — GET, SCAN, ISCAN,
// SCHEMA, STATS, and TXN/TRACE frames containing only GETs — have
// nothing to wait for.
func writesData(req *wire.Request) bool {
	for i := range req.Ops {
		if isWrite(req.Ops[i].Kind) {
			return true
		}
	}
	return false
}

// isPoint reports an op kind that looks one key up in its table.
func isPoint(k wire.Kind) bool {
	switch k {
	case wire.KindGet, wire.KindPut, wire.KindInsert, wire.KindDelete, wire.KindAdd:
		return true
	}
	return false
}

// isWrite reports an op kind whose success commits a write.
func isWrite(k wire.Kind) bool {
	switch k {
	case wire.KindPut, wire.KindInsert, wire.KindDelete, wire.KindAdd,
		wire.KindCreateIndex, wire.KindDropIndex:
		return true
	}
	return false
}

// isDDLFrame reports a single-op index-DDL frame (CREATE_INDEX /
// DROP_INDEX), which commits on the hidden catalog worker rather than the
// executing one.
func isDDLFrame(req *wire.Request) bool {
	if req.Txn || len(req.Ops) == 0 {
		return false
	}
	k := req.Ops[0].Kind
	return k == wire.KindCreateIndex || k == wire.KindDropIndex
}

// latIdx maps a request kind to its latency histogram slot: every
// assigned request kind gets its own slot (TestLatencySlotsDistinct
// enforces it statically), and anything out of range — a malformed kind
// that still reached execution — shares slot 0.
func latIdx(k wire.Kind) int {
	if k > wire.KindRequestMax {
		return 0
	}
	return int(k)
}

// slowAttr summarizes a frame's ops for slow capture: per-kind counts,
// the number of distinct tables touched, and the attributed table — the
// one the frame wrote the most ops against (ties break toward the
// earliest op), or else the first op's table or index name.
func slowAttr(ops []wire.Op) (table string, tables int, counts opCounts) {
	// Allocation is fine here: captures only happen past the slow threshold.
	writes := make(map[string]int)
	seen := make(map[string]struct{})
	for i := range ops {
		op := &ops[i]
		if k := int(op.Kind); k >= 0 && k < len(counts) {
			counts[k]++
		}
		name := op.Table
		if name == "" {
			name = op.Index
		}
		if seen[name] = struct{}{}; i == 0 {
			table = name
		}
		if isWrite(op.Kind) {
			if writes[name]++; writes[name] > writes[table] {
				table = name
			}
		}
	}
	return table, len(seen), counts
}

// table resolves a table name, creating the table on first use unless
// auto-creation is disabled. CreateTable is idempotent and safe against
// concurrent worker contexts.
func (s *Server) table(name string) (*silo.Table, error) {
	if t := s.db.Table(name); t != nil {
		return t, nil
	}
	if s.opts.DisableAutoCreate {
		return nil, errNoTable
	}
	return s.db.CreateTable(name), nil
}

var (
	errNoTable      = silo.ErrNoTable
	errBadValue     = errors.New("server: ADD requires a value of at least 8 bytes")
	errIndexTable   = errors.New("server: table is an index entry table; write its primary table instead")
	errCatalogTable = errors.New("server: table is the schema catalog; it is maintained by DDL operations only")
)

// writable rejects direct writes to index entry tables — a live index's,
// or one a drop left behind, whose rows the next create of that name
// adopts — which would silently desynchronize an index from its primary
// table, and to the schema catalog, whose rows recovery trusts to
// reconstruct the schema.
// Reads and scans of both remain allowed (they are harmless and
// occasionally useful for debugging).
func (s *Server) writable(name string) error {
	if name == silo.CatalogTableName {
		return errCatalogTable
	}
	if s.db.IsEntryTable(name) {
		return errIndexTable
	}
	return nil
}

// errResponse maps an execution error to an ERR frame. Anything else, such
// as silo.ErrDanglingEntry (a damaged index), is CodeInternal with its text.
func errResponse(err error) wire.Response {
	code := wire.CodeInternal
	switch {
	case errors.Is(err, silo.ErrNotFound):
		code = wire.CodeNotFound
	case errors.Is(err, silo.ErrKeyExists):
		code = wire.CodeKeyExists
	case errors.Is(err, silo.ErrConflict):
		code = wire.CodeConflict
	case errors.Is(err, silo.ErrKeyInvalid), errors.Is(err, wire.ErrFrameTooLarge):
		// The latter is a scan page that outgrew Options.MaxFrame: like an
		// over-cap limit, the request asked for more than one frame holds.
		code = wire.CodeInvalid
	case errors.Is(err, silo.ErrNoTable):
		code = wire.CodeNoTable
	case errors.Is(err, silo.ErrNoIndex):
		code = wire.CodeNoIndex
	case errors.Is(err, silo.ErrNotCovering):
		code = wire.CodeNotCovering
	case errors.Is(err, errBadValue):
		code = wire.CodeBadValue
	case errors.Is(err, errIndexTable), errors.Is(err, errCatalogTable):
		// Deliberately not CodeInvalid: the key is fine, the target is
		// wrong, and clients should see the explanatory message (it
		// arrives as a ServerError preserving code and text).
		code = wire.CodeIndexTable
	}
	return wire.Err(code, err.Error())
}

// execState is one worker context: database worker w and its recycled
// scratch — the only memory a request's execution touches besides its job
// and its response buffer: a response arena, resolved-table and result
// slices, the span block of a traced request, the scan encoder, and the
// transaction closures pre-bound once so no request allocates a closure.
// One goroutine at a time holds it (Server.ctxs hands it over). Response
// slices built here alias the state and are valid only until its next
// exec; respond encodes them into a wire frame before that. The recycling
// tests' golden server runs the same code on a fresh state per request.
type execState struct {
	s *Server
	w int

	// Per-request inputs the pre-bound closures read (set before s.run,
	// stable across OCC retries).
	op    *wire.Op
	t     *silo.Table
	ix    *silo.Index
	lo    []byte
	limit int
	ops   []wire.Op

	// arena backs every byte a transaction's results carry; resOff records
	// offsets into it because the arena may move while growing, and the
	// Response slices are materialized only after the transaction commits.
	arena  []byte
	tables []*silo.Table
	result []wire.TxnResult
	resOff [][2]int

	// spans is the timeline of the request being traced (TRACE frames,
	// everything under slow-op capture).
	spans silo.TxnSpans

	// enc frames a scan's rows straight into the response buffer the
	// connection writer will send (execScan).
	enc wire.ScanEncoder

	fnScan, fnTxn  func(tx *silo.Tx) error
	fnSnapshotScan func(stx *silo.SnapTx) error
	fnPair         func(k, v []byte) bool
	fnEntry        func(sk, pk, v []byte) bool
}

func newExecState(s *Server, w int) *execState {
	st := &execState{s: s, w: w}
	st.fnScan = func(tx *silo.Tx) error { return st.doScan(tx) }
	st.fnTxn = st.doTxn
	st.fnSnapshotScan = func(stx *silo.SnapTx) error { return st.doScan(stx) }
	st.fnPair = st.visitPair
	st.fnEntry = st.visitEntry
	return st
}

// exec runs one decoded request on st's worker and builds its response: a
// Response for respond to frame, whose slices alias st and stay valid only
// until the next exec on this worker, or — for SCAN and ISCAN — the
// finished frame itself in a response buffer (execScan), with only the
// Response's Kind set. With sp set, transactional paths run traced; DDL,
// SCHEMA, STATS, and snapshot reads have no commit phases to time and
// ignore it.
func (s *Server) exec(st *execState, req *wire.Request, sp *silo.TxnSpans) (wire.Response, *respBuf) {
	if req.Txn {
		return s.execTxn(st, req.Ops, sp), nil
	}
	op := &req.Ops[0]
	// Scans, index DDL and introspection resolve their own names (an index,
	// or nothing), not op.Table.
	switch op.Kind {
	case wire.KindScan, wire.KindIScan:
		return s.execScan(st, op, sp)
	case wire.KindCreateIndex:
		return s.execCreateIndex(st.w, op), nil
	case wire.KindDropIndex:
		return s.execDropIndex(op), nil
	case wire.KindSchema:
		return s.execSchema(), nil
	case wire.KindStats:
		return s.execStats(), nil
	}
	// GET, PUT, INSERT, DELETE and ADD run as a one-op transaction; its
	// TXNR result maps back to the single-op reply.
	resp := s.execTxn(st, req.Ops, sp)
	switch {
	case resp.Kind != wire.KindTxnR:
		return resp, nil
	case resp.Results[0].HasValue:
		return wire.Response{Kind: wire.KindValue, Value: resp.Results[0].Value}, nil
	}
	return wire.Response{Kind: wire.KindOK}, nil
}

// addInPlace applies an ADD to a record already read into v: add delta to
// the big-endian counter in its first 8 bytes (two's complement, so
// negative deltas subtract) and write the record back. Trailing bytes ride
// along unchanged, so ADD doubles as YCSB's read-modify-write on 100-byte
// records. Concurrent ADDs on the same key conflict and retry, making it a
// serializable read-modify-write over the wire.
func addInPlace(tx *silo.Tx, t *silo.Table, key, v []byte, delta int64) error {
	if len(v) < 8 {
		return errBadValue
	}
	binary.BigEndian.PutUint64(v, binary.BigEndian.Uint64(v)+uint64(delta))
	return tx.Put(t, key, v)
}

// execCreateIndex creates (idempotently) a secondary index from a
// declarative key spec, backfilling any existing rows on this worker. A
// frame with include segments declares a covering index whose entry
// values carry those row fields.
func (s *Server) execCreateIndex(w int, op *wire.Op) wire.Response {
	t, err := s.table(op.Table)
	if err != nil {
		return errResponse(err)
	}
	if _, err := s.db.CreateIndexSpec(w, t, op.Index, op.Unique, wireSegs(op.Segs), wireSegs(op.Incs)...); err != nil {
		return errResponse(err)
	}
	return wire.Response{Kind: wire.KindOK}
}

// execDropIndex drops a named index. The drop is logged DDL — the
// catalog's withdrawal and entry wipe replay from the WAL — so the index
// stays dropped across recovery. Unknown names map to CodeNoIndex.
func (s *Server) execDropIndex(op *wire.Op) wire.Response {
	if err := s.db.DropIndex(op.Index); err != nil {
		return errResponse(err)
	}
	return wire.Response{Kind: wire.KindOK}
}

func wireSegs(in []wire.IndexSeg) []silo.IndexSeg {
	segs := make([]silo.IndexSeg, len(in))
	for i, sg := range in {
		segs[i] = silo.IndexSeg{FromValue: sg.FromValue, Off: int(sg.Off), Len: int(sg.Len), Xform: sg.Xform}
	}
	return segs
}

// segsWire converts engine segments back to their wire form; ok is false
// when a segment cannot be expressed (offsets beyond the wire's u16 range
// — only constructible by embedded callers), in which case the index is
// reported as opaque.
func segsWire(in []silo.IndexSeg) ([]wire.IndexSeg, bool) {
	if in == nil {
		return nil, true
	}
	segs := make([]wire.IndexSeg, len(in))
	for i, sg := range in {
		if sg.Off > 65535 || sg.Len > 65535 {
			return nil, false
		}
		segs[i] = wire.IndexSeg{FromValue: sg.FromValue, Off: uint16(sg.Off), Len: uint16(sg.Len), Xform: sg.Xform}
	}
	return segs, true
}

// execSchema serves the catalog-introspection frame: every table (id and
// name, the schema catalog itself included) and every index declaration.
// A remote client can reconstruct the server's full DDL state from one
// SCHEMA round trip — uniqueness, key specs with transforms, covering
// include lists — or discover that an index is opaque (declared embedded
// with segment offsets beyond the wire's u16 range).
func (s *Server) execSchema() wire.Response {
	sch := &wire.Schema{}
	for _, t := range s.db.Tables() {
		sch.Tables = append(sch.Tables, wire.SchemaTable{ID: t.ID, Name: t.Name})
	}
	for _, ix := range s.db.Indexes() {
		si := wire.SchemaIndex{Name: ix.Name, Table: ix.On.Name, Unique: ix.Unique}
		segs, ok := segsWire(ix.Spec)
		if !ok {
			si.Opaque = true
		} else {
			si.Segs = segs
		}
		if incs, ok := segsWire(ix.Include); ok {
			si.Incs = incs
		} else {
			// An include list outside the wire's range cannot be declared
			// remotely; report the index opaque rather than lying about
			// its projection.
			si.Opaque = true
			si.Segs = nil
		}
		sch.Indexes = append(sch.Indexes, si)
	}
	return wire.Response{Kind: wire.KindSchemaR, Schema: sch}
}

// hiBound maps the wire scan bound to the engine's: nil means +inf, and an
// explicit empty upper bound means an empty range.
func hiBound(op *wire.Op) []byte {
	if !op.HasHi {
		return nil
	}
	if op.Hi == nil {
		return []byte{}
	}
	return op.Hi
}

// execTxn runs a frame's ops as one serializable transaction. Any op
// error aborts the whole transaction (no partial effects) and is reported
// as a single ERR frame; on commit, GET and ADD ops report values
// positionally in a TXNR frame, accumulated in the exec state's arena.
func (s *Server) execTxn(st *execState, ops []wire.Op, sp *silo.TxnSpans) wire.Response {
	// Resolve tables outside the transaction: creation is not
	// transactional and must not be retried into the log out of order.
	if cap(st.tables) < len(ops) {
		st.tables = make([]*silo.Table, len(ops))
		st.result = make([]wire.TxnResult, len(ops))
		st.resOff = make([][2]int, len(ops))
	}
	st.tables = st.tables[:len(ops)]
	st.result = st.result[:len(ops)]
	st.resOff = st.resOff[:len(ops)]
	for i := range ops {
		t, err := s.table(ops[i].Table)
		if err != nil {
			return errResponse(err)
		}
		if ops[i].Kind != wire.KindGet {
			if err := s.writable(ops[i].Table); err != nil {
				return errResponse(err)
			}
		}
		st.tables[i] = t
	}
	st.ops = ops
	if err := s.db.RunTraced(st.w, sp, st.fnTxn); err != nil {
		return errResponse(err)
	}
	for i := range st.result {
		st.result[i] = wire.TxnResult{}
		if o := st.resOff[i]; o[0] >= 0 {
			st.result[i] = wire.TxnResult{HasValue: true, Value: st.arena[o[0]:o[1]:o[1]]}
		}
	}
	return wire.Response{Kind: wire.KindTxnR, Results: st.result}
}

func (st *execState) doTxn(tx *silo.Tx) error {
	ops, tables := st.ops, st.tables
	st.arena = st.arena[:0] // retried transactions restart
	for i := range st.resOff {
		st.resOff[i] = [2]int{-1, -1}
	}
	for i := range ops {
		op := &ops[i]
		var err error
		switch op.Kind {
		case wire.KindGet, wire.KindAdd:
			// The whole record lands in the arena. A GET reports it; an ADD
			// rewrites its counter there and reports the record's first 8
			// bytes, the new counter.
			start := len(st.arena)
			st.arena, err = tx.GetAppend(tables[i], op.Key, st.arena)
			end := len(st.arena)
			if err == nil && op.Kind == wire.KindAdd {
				err = addInPlace(tx, tables[i], op.Key, st.arena[start:], op.Delta)
				end = start + 8
			}
			st.resOff[i] = [2]int{start, end}
		case wire.KindPut:
			err = tx.Put(tables[i], op.Key, op.Value)
		case wire.KindInsert:
			err = tx.Insert(tables[i], op.Key, op.Value)
		case wire.KindDelete:
			err = tx.Delete(tables[i], op.Key)
		default:
			err = errors.New("server: bad txn op " + op.Kind.String())
		}
		if err != nil {
			return err
		}
	}
	return nil
}
