package server

import (
	"fmt"

	"silo"
	"silo/wire"
)

// minKey is the smallest valid entry key: an ISCAN with an empty lower
// bound starts there.
var minKey = []byte{0}

// execScan runs SCAN and every ISCAN variant. It takes the response
// buffer before the transaction starts, and the visitors frame each row
// into it as the scan produces it, so a row is copied once between the
// reader's buffer and the socket and nothing is allocated per row or per
// page. The finished frame goes to the connection writer as is. There is
// one scan body (doScan); a snapshot ISCAN differs only in the reader
// RunSnapshot hands it.
//
// DB.RunTraced re-executes the scan after an OCC conflict, and an attempt that
// aborts — at commit, or in the scan itself when a resolved row went
// missing — may already have framed part of its page: doScan resets the
// encoder at the top of every attempt, and the frame that is sent holds
// the committed attempt's rows only.
//
// Two things bound a page. A limit beyond Options.MaxScan is rejected
// rather than clamped, and so is a page whose frame would pass
// Options.MaxFrame (the client would drop the connection on it): being
// handed fewer rows than asked for is indistinguishable from the range
// really ending.
func (s *Server) execScan(st *execState, op *wire.Op, sp *silo.TxnSpans) (wire.Response, *respBuf) {
	kind, what := wire.KindScanR, "scan"
	st.op, st.lo = op, op.Key
	if op.Kind == wire.KindIScan {
		kind, what = wire.KindIScanR, "iscan"
		if st.ix = s.db.Index(op.Index); st.ix == nil {
			return errResponse(fmt.Errorf("%w: %q", silo.ErrNoIndex, op.Index)), nil
		}
		if len(st.lo) == 0 {
			st.lo = minKey
		}
	} else {
		t, err := s.table(op.Table)
		if err != nil {
			return errResponse(err), nil
		}
		st.t = t
	}
	if int64(op.Limit) > int64(s.opts.MaxScan) {
		return wire.Err(wire.CodeInvalid,
			fmt.Sprintf("server: %s limit %d exceeds server maximum %d", what, op.Limit, s.opts.MaxScan)), nil
	}
	st.limit = s.opts.MaxScan
	if op.Limit != 0 {
		st.limit = int(op.Limit)
	}

	rb := s.getBuf()
	st.enc.Begin(rb.b[:0], kind, s.opts.MaxFrame)
	var err error
	if op.Snapshot {
		err = s.db.RunSnapshot(st.w, st.fnSnapshotScan)
	} else {
		err = s.db.RunTraced(st.w, sp, st.fnScan)
	}
	// A row the encoder refused stopped the scan early and cleanly; the
	// refusal is the error.
	b, encErr := st.enc.Finish()
	rb.b = b
	if err == nil {
		err = encErr
	}
	if err != nil {
		s.putBuf(rb)
		return errResponse(err), nil
	}
	return wire.Response{Kind: kind}, rb
}

func (st *execState) doScan(r silo.Reader) error {
	st.enc.Reset() // a retried transaction restarts its page
	op := st.op
	switch {
	case op.Kind == wire.KindScan:
		return r.Scan(st.t, st.lo, hiBound(op), st.fnPair)
	case op.Covering:
		return silo.ScanIndexCovering(r, st.ix, st.lo, hiBound(op), st.limit, st.fnEntry)
	}
	return silo.ScanIndexBatched(r, st.ix, st.lo, hiBound(op), st.limit, st.fnEntry)
}

// visitPair and visitEntry frame one row and stop the scan at the limit
// or at the first row the encoder refuses. Row slices are valid only
// during the callback; the encoder copies them.
func (st *execState) visitPair(k, v []byte) bool {
	return st.enc.Pair(k, v) && st.enc.Rows() < st.limit
}

func (st *execState) visitEntry(sk, pk, v []byte) bool {
	return st.enc.Entry(sk, pk, v) && st.enc.Rows() < st.limit
}
