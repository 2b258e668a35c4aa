package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"

	"silo"
	"silo/wire"
)

// scan_test.go pins the one scan path (execScan): the frame a worker
// builds in place must hold exactly the committed attempt's rows — after
// an OCC retry that had already framed a prefix, at every limit, and not
// at all when the scan fails part-way.

// rowKey is row i's key in benchExec's tables: 256 100-byte rows, value
// byte 0 = i, under 'k' ‖ i>>4 ‖ i&15; "rows" is indexed by the two
// counter bytes (rows_ix, and rows_cov covering value[0:16]).
func rowKey(i int) []byte { return []byte{'k', byte(i >> 4), byte(i & 15)} }

// execFrame runs req on worker 0's exec state and returns the response
// payload (decoded from the worker-built buffer when there is one).
func execFrame(t *testing.T, s *Server, st *execState, op wire.Op) wire.Response {
	t.Helper()
	resp, rb := s.exec(st, &wire.Request{Ops: []wire.Op{op}}, nil)
	if (rb != nil) != (resp.Kind == wire.KindScanR || resp.Kind == wire.KindIScanR) {
		t.Fatalf("%v answered %v with buffer %v: a scan page, and only a scan page, arrives framed", op.Kind, resp.Kind, rb != nil)
	}
	if rb == nil {
		return resp
	}
	dec, err := wire.DecodeResponse(append([]byte(nil), rb.b[4:]...))
	if err != nil {
		t.Fatalf("worker-built %v frame does not decode: %v", resp.Kind, err)
	}
	if want, _ := wire.AppendResponse(nil, &dec); !bytes.Equal(rb.b, want) {
		t.Fatalf("worker-built %v frame is not the reference encoding of its own rows", resp.Kind)
	}
	s.putBuf(rb)
	return dec
}

// TestScanRetryFramesOnlyTheCommittedAttempt: an ISCAN frames rows as it
// hands them out, and DB.RunTraced re-executes it after an OCC conflict, so a
// failed attempt leaves rows in the buffer. A writer rewrites the page's
// first row and deletes a later one while attempt 1 is in flight; the
// retry must start the page over, so the frame holds the second attempt's
// rows and nothing else.
//
// The writer lands at one of two points: "mid-page", right after the
// first row is framed, or "before commit", after attempt 1 framed its
// whole page. Either way attempt 1 read every row of its page before the
// visitor first ran, so it frames 64 stale rows and fails commit
// validation. (A row that goes missing between entry collection and row
// resolution fails the scan itself, after a prefix — the index package's
// gap tests pin that; the reset below serves both.)
func TestScanRetryFramesOnlyTheCommittedAttempt(t *testing.T) {
	for _, where := range []string{"mid-page", "before commit"} {
		t.Run(where, func(t *testing.T) {
			s, st, stop := benchExec(t)
			defer stop()
			rows := s.db.Table("rows")
			newRow := bytes.Repeat([]byte{0xEE}, 100)
			wrote := false
			write := func() {
				// Worker 1 is the server's own, idle: nothing was dispatched.
				err := s.db.Run(1, func(tx *silo.Tx) error {
					if err := tx.Put(rows, rowKey(0x20), newRow); err != nil {
						return err
					}
					return tx.Delete(rows, rowKey(0x25))
				})
				if err != nil {
					t.Errorf("concurrent writer: %v", err)
				}
				wrote = true
			}

			calls, attempts := 0, 0
			st.fnEntry = func(sk, pk, v []byte) bool {
				more := st.visitEntry(sk, pk, v)
				if calls++; calls == 1 && where == "mid-page" {
					write()
				}
				return more
			}
			st.fnScan = func(tx *silo.Tx) error {
				err := st.doScan(tx)
				if attempts++; attempts == 1 && where == "before commit" {
					write()
				}
				return err
			}
			got := execFrame(t, s, st, iscanOp("rows_ix", false, false))
			if !wrote || attempts != 2 || got.Kind != wire.KindIScanR {
				t.Fatalf("scan answered %v (%s) after %d attempts, writer ran: %v", got.Kind, got.Msg, attempts, wrote)
			}

			var want []wire.IndexEntry
			for i := 0x20; len(want) < 64; i++ {
				if i == 0x25 {
					continue
				}
				val := make([]byte, 100)
				val[0] = byte(i)
				if i == 0x20 {
					val = newRow
				}
				want = append(want, wire.IndexEntry{SK: rowKey(i)[1:], PK: rowKey(i), Value: val})
			}
			if len(got.Entries) != len(want) {
				t.Fatalf("frame holds %d rows, want the retry's %d", len(got.Entries), len(want))
			}
			for i, w := range want {
				g := got.Entries[i]
				if !bytes.Equal(g.SK, w.SK) || !bytes.Equal(g.PK, w.PK) || !bytes.Equal(g.Value, w.Value) {
					t.Fatalf("row %d = %x/%x=%x…, want %x/%x=%x…", i, g.SK, g.PK, g.Value[:4], w.SK, w.PK, w.Value[:4])
				}
			}
			// Rows attempt 1 framed before failing: its whole page.
			const stale = 64
			if calls != stale+len(want) {
				t.Fatalf("visitor ran %d times, want %d (aborted attempt) + %d (committed page)", calls, stale, len(want))
			}
		})
	}
}

// TestScanLimits: limit 1, a limit inside the range, the range's exact
// size, and a limit beyond it, on every scan variant — each page is the
// same prefix of the same rows.
func TestScanLimits(t *testing.T) {
	s, st, stop := benchExec(t)
	defer stop()
	const span = 0x80 - 0x20 // rows in [k 2 0, k 8 0)
	variants := []struct {
		name string
		op   wire.Op
	}{
		{"scan", wire.Op{Kind: wire.KindScan, Table: "rows", Key: rowKey(0x20), HasHi: true, Hi: rowKey(0x80)}},
		{"iscan-batched", iscanOp("rows_ix", false, false)},
		{"iscan-covering", iscanOp("rows_cov", true, false)},
		{"iscan-snapshot", iscanOp("rows_ix", false, true)},
		{"iscan-snapshot-covering", iscanOp("rows_cov", true, true)},
	}
	for _, v := range variants {
		for _, limit := range []int{1, 7, span, span + 50} {
			op := v.op
			op.Limit = uint32(limit)
			got := execFrame(t, s, st, op)
			n := len(got.Pairs) + len(got.Entries)
			want := limit
			if want > span {
				want = span
			}
			if n != want {
				t.Errorf("%s limit %d: %d rows (%v %s), want %d", v.name, limit, n, got.Kind, got.Msg, want)
				continue
			}
			for i := 0; i < n; i++ {
				pk, val := rowKey(0x20+i), []byte(nil)
				if op.Kind == wire.KindScan {
					pk, val = got.Pairs[i].Key, got.Pairs[i].Value
				} else {
					e := got.Entries[i]
					if !bytes.Equal(e.SK, rowKey(0x20 + i)[1:]) {
						t.Errorf("%s limit %d row %d: sk %x", v.name, limit, i, e.SK)
					}
					pk, val = e.PK, e.Value
				}
				wantLen := 100
				if op.Covering {
					wantLen = 16
				}
				if !bytes.Equal(pk, rowKey(0x20+i)) || len(val) != wantLen || val[0] != byte(0x20+i) {
					t.Errorf("%s limit %d row %d: %x = %d bytes starting %x", v.name, limit, i, pk, len(val), val[:1])
				}
			}
		}
	}
}

// TestScanErrorsSendNoPage: a scan that fails — before its first row or
// after framing some — answers one ERR frame and keeps no buffer, and the
// exec state serves the next scan intact.
func TestScanErrorsSendNoPage(t *testing.T) {
	s, st, stop := benchExec(t)
	defer stop()
	s.opts.MaxFrame = 2048 // ≈ 18 rows of 100 B
	for _, c := range []struct {
		name string
		op   wire.Op
		code wire.ErrCode
	}{
		{"no index", iscanOp("nope", false, false), wire.CodeNoIndex},
		{"not covering", iscanOp("rows_ix", true, false), wire.CodeNotCovering},
		{"snapshot not covering", iscanOp("rows_ix", true, true), wire.CodeNotCovering},
		{"limit over MaxScan", wire.Op{Kind: wire.KindScan, Table: "rows", Key: rowKey(0), Limit: 1 << 20}, wire.CodeInvalid},
		{"scan page over MaxFrame", wire.Op{Kind: wire.KindScan, Table: "rows", Key: rowKey(0), Limit: 64}, wire.CodeInvalid},
		{"iscan page over MaxFrame", iscanOp("rows_ix", false, false), wire.CodeInvalid},
		{"snapshot page over MaxFrame", iscanOp("rows_ix", false, true), wire.CodeInvalid},
	} {
		got := execFrame(t, s, st, c.op)
		if got.Kind != wire.KindErr || got.Code != c.code {
			t.Errorf("%s: answered %v code %v (%s), want ERR %v", c.name, got.Kind, got.Code, got.Msg, c.code)
		}
		// A page that fits still goes out whole right after.
		ok := iscanOp("rows_ix", false, false)
		ok.Limit = 10
		if page := execFrame(t, s, st, ok); len(page.Entries) != 10 || !bytes.Equal(page.Entries[9].PK, rowKey(0x29)) {
			t.Errorf("%s: the next scan answered %v with %d rows", c.name, page.Kind, len(page.Entries))
		}
	}
}

// TestOversizedScanKeepsConnection is the end-to-end shape of the
// response cap: a SCAN and an ISCAN whose pages would pass the server's
// MaxFrame each get an ERR frame saying so — instead of a frame the
// client's reader must reject, which costs it the whole pipelined
// connection — and the same connection serves the next request.
func TestOversizedScanKeepsConnection(t *testing.T) {
	db, err := silo.Open(silo.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const maxFrame = 4096
	srv := New(db, Options{MaxFrame: maxFrame})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	call := func(req wire.Request) wire.Response {
		t.Helper()
		frame, err := wire.AppendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		// Read with the cap the server was given: a conforming peer.
		payload, err := wire.ReadFrame(br, maxFrame)
		if err != nil {
			t.Fatalf("reading the response to %v: %v", req.Ops[0].Kind, err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	row := make([]byte, 100)
	for i := 0; i < 100; i++ {
		if r := call(wire.Request{Ops: []wire.Op{{Kind: wire.KindInsert, Table: "t", Key: rowKey(i), Value: row}}}); r.Kind != wire.KindOK {
			t.Fatalf("insert %d: %v %s", i, r.Kind, r.Msg)
		}
	}
	if r := call(wire.Request{Ops: []wire.Op{{Kind: wire.KindCreateIndex, Table: "t", Index: "t_ix",
		Segs: []wire.IndexSeg{{Off: 1, Len: 2}}}}}); r.Kind != wire.KindOK {
		t.Fatalf("create index: %v %s", r.Kind, r.Msg)
	}
	scan := wire.Op{Kind: wire.KindScan, Table: "t", Key: rowKey(0)}
	iscan := wire.Op{Kind: wire.KindIScan, Index: "t_ix"}
	wantMsg := fmt.Sprintf("scan response exceeds %d bytes; lower the limit", maxFrame)
	for _, op := range []wire.Op{scan, iscan} {
		r := call(wire.Request{Ops: []wire.Op{op}}) // 100 rows ≈ 11 KB
		if r.Kind != wire.KindErr || r.Code != wire.CodeInvalid || !bytes.Contains([]byte(r.Msg), []byte(wantMsg)) {
			t.Fatalf("%v over the cap: %v code %v %q, want ERR %v %q", op.Kind, r.Kind, r.Code, r.Msg, wire.CodeInvalid, wantMsg)
		}
		op.Limit = 20
		r = call(wire.Request{Ops: []wire.Op{op}})
		if n := len(r.Pairs) + len(r.Entries); n != 20 {
			t.Fatalf("%v limit 20 on the same connection: %v %s, %d rows", op.Kind, r.Kind, r.Msg, n)
		}
	}
}
