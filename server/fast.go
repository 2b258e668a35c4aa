package server

import (
	"encoding/binary"
	"errors"

	"silo"
	"silo/wire"
)

// execState is one executor's recycled scratch for the allocation-free
// steady state: value buffers, a response arena, resolved-table and
// result slices, the scan encoder, and the transaction closures pre-bound
// once so s.run never allocates a closure per request. Response slices
// built here alias the state and are valid only until the worker's next
// exec; respond encodes them into a wire frame before that (the lifecycle
// respond documents). Traced and noReuse requests use it for scans only
// (see execScan); their other ops take the allocating paths in exec.
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

	// val is the GET/ADD read buffer; num holds ADD's 8-byte result.
	val []byte
	num [8]byte
	n   uint64

	// arena backs every byte a TXN's results carry; resOff records
	// offsets into it because the arena may move while growing, and the
	// Response slices are materialized only after the transaction commits.
	arena  []byte
	tables []*silo.Table
	result []wire.TxnResult
	resOff [][2]int

	// enc frames a scan's rows straight into the response buffer the
	// connection writer will send (execScan).
	enc wire.ScanEncoder

	fnGet, fnPut, fnInsert, fnDelete, fnAdd, fnScan, fnTxn func(tx *silo.Tx) error
	fnSnapScan                                             func(stx *silo.SnapTx) error
	fnPair                                                 func(k, v []byte) bool
	fnEntry                                                func(sk, pk, v []byte) bool
}

func newExecState(s *Server, w int) *execState {
	st := &execState{s: s, w: w}
	st.fnGet = st.doGet
	st.fnPut = st.doPut
	st.fnInsert = st.doInsert
	st.fnDelete = st.doDelete
	st.fnAdd = st.doAdd
	st.fnScan = st.doScan
	st.fnTxn = st.doTxn
	st.fnSnapScan = st.doSnapScan
	st.fnPair = st.visitPair
	st.fnEntry = st.visitEntry
	return st
}

// execFast runs one untraced single-op data request on the recycled
// exec state. Semantics match the allocating paths in exec exactly; the
// only difference is where the response bytes live.
func (s *Server) execFast(st *execState, op *wire.Op, t *silo.Table) wire.Response {
	st.op, st.t = op, t
	switch op.Kind {
	case wire.KindGet:
		if err := s.run(st.w, nil, st.fnGet); err != nil {
			return errResponse(err)
		}
		return wire.Response{Kind: wire.KindValue, Value: st.val}

	case wire.KindPut:
		if err := s.run(st.w, nil, st.fnPut); err != nil {
			return errResponse(err)
		}
		return wire.Response{Kind: wire.KindOK}

	case wire.KindInsert:
		if err := s.run(st.w, nil, st.fnInsert); err != nil {
			return errResponse(err)
		}
		return wire.Response{Kind: wire.KindOK}

	case wire.KindDelete:
		if err := s.run(st.w, nil, st.fnDelete); err != nil {
			return errResponse(err)
		}
		return wire.Response{Kind: wire.KindOK}

	case wire.KindAdd:
		if err := s.run(st.w, nil, st.fnAdd); err != nil {
			return errResponse(err)
		}
		binary.BigEndian.PutUint64(st.num[:], st.n)
		return wire.Response{Kind: wire.KindValue, Value: st.num[:]}
	}
	return wire.Err(wire.CodeProto, "unexecutable kind "+op.Kind.String())
}

func (st *execState) doGet(tx *silo.Tx) error {
	v, err := tx.GetAppend(st.t, st.op.Key, st.val[:0])
	st.val = v
	return err
}

func (st *execState) doPut(tx *silo.Tx) error {
	return tx.Put(st.t, st.op.Key, st.op.Value)
}

func (st *execState) doInsert(tx *silo.Tx) error {
	return tx.Insert(st.t, st.op.Key, st.op.Value)
}

func (st *execState) doDelete(tx *silo.Tx) error {
	return tx.Delete(st.t, st.op.Key)
}

// doAdd is addValue on the recycled read buffer: the counter rewrite
// happens in place in st.val and Put copies it into the write set, so
// the buffer is free again at return.
func (st *execState) doAdd(tx *silo.Tx) error {
	v, err := tx.GetAppend(st.t, st.op.Key, st.val[:0])
	st.val = v
	if err != nil {
		return err
	}
	if len(v) < 8 {
		return errBadValue
	}
	n := binary.BigEndian.Uint64(v) + uint64(st.op.Delta)
	binary.BigEndian.PutUint64(v, n)
	st.n = n
	return tx.Put(st.t, st.op.Key, v)
}

// execTxnFast is execTxn on the recycled exec state: same table
// resolution, same op semantics, with GET/ADD results accumulated in
// the arena instead of fresh allocations.
func (s *Server) execTxnFast(st *execState, ops []wire.Op) wire.Response {
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
	if err := s.run(st.w, nil, st.fnTxn); err != nil {
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
		switch op.Kind {
		case wire.KindGet:
			start := len(st.arena)
			a, err := tx.GetAppend(tables[i], op.Key, st.arena)
			st.arena = a
			if err != nil {
				return err
			}
			st.resOff[i] = [2]int{start, len(a)}
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
			// The whole record lands in the arena; the counter rewrite
			// happens there, Put copies it into the write set, and the
			// result is the record's first 8 bytes (the new counter,
			// exactly what the allocating path builds).
			start := len(st.arena)
			a, err := tx.GetAppend(tables[i], op.Key, st.arena)
			st.arena = a
			if err != nil {
				return err
			}
			v := a[start:]
			if len(v) < 8 {
				return errBadValue
			}
			n := binary.BigEndian.Uint64(v) + uint64(op.Delta)
			binary.BigEndian.PutUint64(v, n)
			if err := tx.Put(tables[i], op.Key, v); err != nil {
				return err
			}
			st.resOff[i] = [2]int{start, start + 8}
		default:
			return errors.New("server: bad txn op " + op.Kind.String())
		}
	}
	return nil
}
