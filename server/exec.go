package server

import (
	"encoding/binary"
	"errors"
	"time"

	"silo"
	"silo/wire"
)

// chainShare is how long a worker keeps a chain to itself. Handing the
// rest of a chain to another worker costs a channel send and a wake-up,
// a few microseconds: not worth it between point requests, which finish
// a whole chain sooner than that, and well worth it once scans, large
// transactions, retries or a durability wait have held the worker for
// tens of microseconds while the requests behind them wait.
const chainShare = 50 * time.Microsecond

// workerLoop is the executor for worker w: it owns that worker context for
// the server's lifetime and runs each dispatched chain, in order, every
// request as a one-shot transaction — exactly the paper's model of
// requests arriving over the network and executing to completion on a
// worker core. While it waits for a chain it counts as idle; a worker
// that has spent chainShare on its chain and sees an idle peer passes the
// rest of the chain on, so one deeply pipelined connection still uses
// every core.
func (s *Server) workerLoop(w int) {
	defer s.workerWG.Done()
	st := newExecState(s, w)
	for {
		s.idle.Add(1)
		j, ok := <-s.jobs
		s.idle.Add(-1)
		if !ok {
			return
		}
		began := time.Now()
		for j != nil {
			// Responding hands j to the connection writer, which recycles
			// it; the link is read first.
			next := j.next
			s.runJob(w, st, j)
			if next != nil && s.idle.Load() > 0 && time.Since(began) >= chainShare {
				select {
				case s.jobs <- next:
					s.obs.dispatches.Inc()
					next = nil
				default:
				}
			}
			j = next
		}
	}
}

// runJob executes one request and responds to it.
func (s *Server) runJob(w int, st *execState, j *job) {
	o := s.wobs[w]
	slowAt := s.opts.SlowThreshold
	start := time.Now()
	if !j.enq.IsZero() {
		o.queue.ObserveDuration(start.Sub(j.enq).Nanoseconds())
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
	// already in hand when it crosses the threshold. With the group
	// release pipeline active a traced write must not block this
	// worker on durability — the releaser accounts the park-to-release
	// wait to the Fsync span instead, so the timeline still covers the
	// client-visible commit point.
	var tc *traceCtx
	var t0 time.Duration
	if j.req.Trace || slowAt > 0 {
		tc = &traceCtx{sp: &silo.TxnSpans{}, durable: j.req.Trace && s.rel == nil}
		t0 = s.now()
		if q := t0 - j.enqTS; q > 0 && !j.enq.IsZero() {
			tc.sp.Queue = q
		}
	}
	resp, rb := s.exec(w, st, &j.req, tc)
	if tc != nil {
		elapsed := s.now() - t0
		sp := tc.sp
		// The engine timed execute/validate/log/fsync-wait; what is
		// left of the frame's wall time is table resolution and
		// result assembly — the respond span.
		if r := elapsed - (sp.Exec + sp.Validate + sp.Log + sp.Fsync); r > 0 {
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
	// release is the releaser's own release-lag histogram.
	o.latency[latIdx(kind)].ObserveDuration(time.Since(start).Nanoseconds())
	if resp.Kind == wire.KindErr {
		s.errors64.Add(1)
	}
	s.requests64.Add(1)
	s.respond(w, &j.req, resp, rb, j.done)
}

// respond encodes and releases one completed response according to the
// server's ack mode. Encoding happens here, on the executor, into a
// recycled buffer — the response may alias the worker's exec state and
// the job's payload, both reused for the next job, so the bytes must be
// captured before this function returns (TRACER responses are the one
// exception, see encodeResp; a scan arrives already framed in rb). Write
// responses carry their commit epoch to the release pipeline (or, in the
// per-request baseline, block this worker until it is durable); reads,
// snapshot scans, and errors release immediately — an ERR frame
// acknowledges nothing (the transaction aborted), and reads have nothing
// to make durable. Auto-created tables are covered by the data epoch: the
// catalog record commits (on the DDL worker) before the data write's
// commit, and epochs are monotone, so a durable data epoch implies the
// creation record is durable too.
func (s *Server) respond(w int, req *wire.Request, resp wire.Response, rb *respBuf, done chan<- outMsg) {
	m := s.encodeResp(&resp, rb)
	if s.ackMode == AckImmediate || resp.Kind == wire.KindErr || !writesData(req) {
		done <- m
		return
	}
	var e uint64
	if isDDLFrame(req) {
		// DDL commits on the hidden catalog worker, whose commit epoch is
		// not visible here; it committed before this point, so the current
		// global epoch is a conservative upper bound.
		e = s.db.Epoch()
	} else {
		e = s.db.LastCommitEpoch(w)
	}
	if s.ackMode == AckPerRequest {
		s.db.FlushLog(w)
		s.db.WaitDurable(e)
		done <- m
		return
	}
	s.rel.park(m, done, e)
}

// encodeResp turns an executor's response into the writer-bound outMsg.
// A scan's frame was built in place by execScan and passes through in
// rb. Otherwise the steady state encodes into a pooled buffer
// immediately; a response carrying spans (a TRACER) instead travels
// decoded in a private copy, because the group-commit releaser patches
// its Fsync span between park and release — encoding it now would freeze
// a lie. Traced execution uses the allocating paths, so the copy shares
// nothing with the worker's recycled exec state.
func (s *Server) encodeResp(resp *wire.Response, rb *respBuf) outMsg {
	if rb != nil {
		return outMsg{rb: rb}
	}
	if resp.Spans != nil {
		rp := new(wire.Response)
		*rp = *resp
		return outMsg{resp: rp}
	}
	rb = s.getBuf()
	b, err := wire.AppendResponse(rb.b[:0], resp)
	if err != nil {
		// Encoding failure is a server bug; degrade to an ERR frame rather
		// than desynchronizing the stream.
		b, _ = wire.AppendResponse(rb.b[:0], &wire.Response{
			Kind: wire.KindErr, Code: wire.CodeInternal, Msg: err.Error(),
		})
	}
	rb.b = b
	return outMsg{rb: rb}
}

// writesData reports whether a frame's success implies a committed write
// whose durability gates the response. Pure reads — GET, SCAN, ISCAN,
// SCHEMA, STATS, and TXN/TRACE frames containing only GETs — have
// nothing to wait for.
func writesData(req *wire.Request) bool {
	for i := range req.Ops {
		switch req.Ops[i].Kind {
		case wire.KindPut, wire.KindInsert, wire.KindDelete, wire.KindAdd,
			wire.KindCreateIndex, wire.KindDropIndex:
			return true
		}
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
// that still reached execution — shares slot 0 instead of aliasing a
// real opcode the way the historical low-nibble mask did for kinds ≥ 16.
func latIdx(k wire.Kind) int {
	if k > wire.KindRequestMax {
		return 0
	}
	return int(k)
}

// slowAttr summarizes a frame's ops for slow capture: per-kind counts,
// the number of distinct tables touched, and the attributed table — the
// one the frame wrote the most ops against (ties break toward the
// earliest op), falling back to the first op's table or index name for
// read-only frames. Multi-op TXN frames previously reported Ops[0]'s
// table unconditionally, misattributing any transaction whose first op
// happened to touch a side table.
func slowAttr(ops []wire.Op) (table string, tables int, counts opCounts) {
	// Allocation is fine here: captures only happen past the slow
	// threshold.
	writes := make(map[string]int)
	seen := make(map[string]struct{})
	var domWrites int
	for i := range ops {
		op := &ops[i]
		if k := int(op.Kind); k >= 0 && k < len(counts) {
			counts[k]++
		}
		name := op.Table
		if name == "" {
			name = op.Index
		}
		seen[name] = struct{}{}
		switch op.Kind {
		case wire.KindPut, wire.KindInsert, wire.KindDelete, wire.KindAdd,
			wire.KindCreateIndex, wire.KindDropIndex:
			writes[name]++
			if writes[name] > domWrites {
				domWrites = writes[name]
				table = name
			}
		}
	}
	if table == "" && len(ops) > 0 {
		table = ops[0].Table
		if table == "" {
			table = ops[0].Index
		}
	}
	return table, len(seen), counts
}

// table resolves a table name, creating the table on first use unless
// auto-creation is disabled. CreateTable is idempotent and safe against
// concurrent executors.
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

// writable rejects direct writes to index entry tables — which would
// silently desynchronize the index from its primary table — and to the
// schema catalog, whose rows recovery trusts to reconstruct the schema.
// Reads and scans of both remain allowed (they are harmless and
// occasionally useful for debugging).
func (s *Server) writable(name string) error {
	if name == silo.CatalogTableName {
		return errCatalogTable
	}
	if s.db.Index(name) != nil {
		return errIndexTable
	}
	return nil
}

// errResponse maps an execution error to an ERR frame.
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

// addValue applies an ADD: read the big-endian counter in the value's
// first 8 bytes, add delta (two's complement, so negative deltas
// subtract), write the record back, and return the new counter. Trailing
// bytes ride along unchanged, so ADD doubles as YCSB's read-modify-write
// on 100-byte records. Concurrent ADDs on the same key conflict and
// retry, making it a serializable read-modify-write over the wire.
func addValue(tx *silo.Tx, t *silo.Table, key []byte, delta int64) (uint64, error) {
	v, err := tx.Get(t, key)
	if err != nil {
		return 0, err
	}
	if len(v) < 8 {
		return 0, errBadValue
	}
	n := binary.BigEndian.Uint64(v) + uint64(delta)
	binary.BigEndian.PutUint64(v, n)
	return n, tx.Put(t, key, v)
}

// exec runs one decoded request on worker w and builds its response:
// a Response for encodeResp to frame, or — for SCAN and ISCAN — the
// finished frame itself in a response buffer (execScan), with only the
// Response's Kind set. Untraced data ops (tc nil) on a recycling server
// run on the worker's exec state — the allocation-free steady state,
// whose response slices alias st and stay valid only until the next exec
// on this worker; respond encodes them before that. Traced requests,
// noReuse servers and everything below the first switch use the
// historical allocating paths, whose response slices are freshly owned
// (required for TRACER responses, which outlive the executor while
// parked). With tc set, transactional paths run traced; DDL, SCHEMA,
// STATS, and snapshot reads have no commit phases to time and ignore it.
func (s *Server) exec(w int, st *execState, req *wire.Request, tc *traceCtx) (wire.Response, *respBuf) {
	if !req.Txn {
		if op := &req.Ops[0]; op.Kind == wire.KindScan || op.Kind == wire.KindIScan {
			return s.execScan(st, op, tc)
		}
	}
	return s.execOp(w, st, req, tc), nil
}

// execOp is exec for everything that answers with a decoded Response.
func (s *Server) execOp(w int, st *execState, req *wire.Request, tc *traceCtx) wire.Response {
	if req.Txn {
		return s.execTxn(w, st, req.Ops, tc)
	}
	op := &req.Ops[0]
	// Index frames resolve an index name, not a table name.
	switch op.Kind {
	case wire.KindCreateIndex:
		return s.execCreateIndex(w, op)
	case wire.KindDropIndex:
		return s.execDropIndex(op)
	case wire.KindSchema:
		return s.execSchema()
	case wire.KindStats:
		return s.execStats()
	}
	t, err := s.table(op.Table)
	if err != nil {
		return errResponse(err)
	}
	switch op.Kind {
	case wire.KindPut, wire.KindInsert, wire.KindDelete, wire.KindAdd:
		if err := s.writable(op.Table); err != nil {
			return errResponse(err)
		}
	}
	if tc == nil && !s.opts.noReuse {
		return s.execFast(st, op, t)
	}
	switch op.Kind {
	case wire.KindGet:
		var val []byte
		err := s.run(w, tc, func(tx *silo.Tx) error {
			var err error
			val, err = tx.Get(t, op.Key)
			return err
		})
		if err != nil {
			return errResponse(err)
		}
		return wire.Response{Kind: wire.KindValue, Value: val}

	case wire.KindPut:
		err := s.run(w, tc, func(tx *silo.Tx) error {
			return tx.Put(t, op.Key, op.Value)
		})
		if err != nil {
			return errResponse(err)
		}
		return wire.Response{Kind: wire.KindOK}

	case wire.KindInsert:
		err := s.run(w, tc, func(tx *silo.Tx) error {
			return tx.Insert(t, op.Key, op.Value)
		})
		if err != nil {
			return errResponse(err)
		}
		return wire.Response{Kind: wire.KindOK}

	case wire.KindDelete:
		err := s.run(w, tc, func(tx *silo.Tx) error {
			return tx.Delete(t, op.Key)
		})
		if err != nil {
			return errResponse(err)
		}
		return wire.Response{Kind: wire.KindOK}

	case wire.KindAdd:
		var n uint64
		err := s.run(w, tc, func(tx *silo.Tx) error {
			var err error
			n, err = addValue(tx, t, op.Key, op.Delta)
			return err
		})
		if err != nil {
			return errResponse(err)
		}
		var v [8]byte
		binary.BigEndian.PutUint64(v[:], n)
		return wire.Response{Kind: wire.KindValue, Value: v[:]}
	}
	return wire.Err(wire.CodeProto, "unexecutable kind "+op.Kind.String())
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
	segs := wireSegs(op.Segs)
	if len(op.Incs) > 0 {
		if _, err := s.db.CreateCoveringIndexSpec(w, t, op.Index, op.Unique, segs, wireSegs(op.Incs)); err != nil {
			return errResponse(err)
		}
		return wire.Response{Kind: wire.KindOK}
	}
	if _, err := s.db.CreateIndexSpec(w, t, op.Index, op.Unique, segs); err != nil {
		return errResponse(err)
	}
	return wire.Response{Kind: wire.KindOK}
}

// execDropIndex drops a named index. The drop is logged DDL — the
// registry removal and entry wipe replay from the WAL — so the index
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
// with a Go key function).
func (s *Server) execSchema() wire.Response {
	sch := &wire.Schema{}
	for _, t := range s.db.Tables() {
		sch.Tables = append(sch.Tables, wire.SchemaTable{ID: t.ID, Name: t.Name})
	}
	for _, ix := range s.db.Indexes() {
		si := wire.SchemaIndex{Name: ix.Name, Table: ix.On.Name, Unique: ix.Unique}
		segs, ok := segsWire(ix.Spec)
		if !ok || segs == nil {
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

// execTxn runs a multi-op frame as one serializable transaction. Any op
// error aborts the whole transaction (no partial effects) and is reported
// as a single ERR frame; on commit, GET and ADD ops report values
// positionally in a TXNR frame. Untraced frames run on the worker's
// recycled exec state (execTxnFast); traced ones take the allocating
// path below.
func (s *Server) execTxn(w int, st *execState, ops []wire.Op, tc *traceCtx) wire.Response {
	if tc == nil && !s.opts.noReuse {
		return s.execTxnFast(st, ops)
	}
	// Resolve tables outside the transaction: creation is not
	// transactional and must not be retried into the log out of order.
	tables := make([]*silo.Table, len(ops))
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
		tables[i] = t
	}
	results := make([]wire.TxnResult, len(ops))
	err := s.run(w, tc, func(tx *silo.Tx) error {
		for i := range results {
			results[i] = wire.TxnResult{} // retried transactions restart
		}
		for i := range ops {
			op := &ops[i]
			switch op.Kind {
			case wire.KindGet:
				v, err := tx.Get(tables[i], op.Key)
				if err != nil {
					return err
				}
				results[i] = wire.TxnResult{HasValue: true, Value: v}
			case wire.KindPut:
				if err := tx.Put(tables[i], op.Key, op.Value); err != nil {
					return err
				}
			case wire.KindInsert:
				if err := tx.Insert(tables[i], op.Key, op.Value); err != nil {
					return err
				}
			case wire.KindDelete:
				if err := tx.Delete(tables[i], op.Key); err != nil {
					return err
				}
			case wire.KindAdd:
				n, err := addValue(tx, tables[i], op.Key, op.Delta)
				if err != nil {
					return err
				}
				v := make([]byte, 8)
				binary.BigEndian.PutUint64(v, n)
				results[i] = wire.TxnResult{HasValue: true, Value: v}
			default:
				return errors.New("server: bad txn op " + op.Kind.String())
			}
		}
		return nil
	})
	if err != nil {
		return errResponse(err)
	}
	return wire.Response{Kind: wire.KindTxnR, Results: results}
}
