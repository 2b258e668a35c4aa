package server

import (
	"testing"
	"time"

	"silo"
	"silo/internal/epoch"
	"silo/internal/sim"
	"silo/wire"
)

// bench_exec_test.go prices the server's steady-state request lifecycle
// — decode into per-connection scratch, execute on the worker's recycled
// exec state, encode into a pooled response buffer — without a socket in
// the way. The claim under test is the zero-allocation wire hot path:
// after warmup, a non-DDL GET/PUT/TXN/SCAN/ISCAN costs 0 allocs/op end to
// end in package server, traced (a TRACE frame, or everything under
// slow-op capture) or not: TestLedger's server exec rows hold every shape
// at 0. BENCH_EXEC.json holds the reference snapshot.

// benchExec builds a server with no connections over an in-memory
// database and takes worker context 0 out of its pool, so the benchmark
// drives that context directly: exactly the code a connection reader runs
// per request, minus the socket. Its epochs advance only when it steps
// their simulated clock, which it does until the snapshot epoch covers the
// load, so snapshot ISCANs page the same rows as the serializable ones.
func benchExec(tb testing.TB) (*Server, *execState, func()) {
	tb.Helper()
	clk := sim.NewClock()
	db, err := silo.Open(silo.Options{Workers: 2, Clock: clk})
	if err != nil {
		tb.Fatal(err)
	}
	s := New(db, Options{})
	t := db.CreateTable("bench")
	if err := db.Run(0, func(tx *silo.Tx) error {
		for i := 0; i < 256; i++ {
			k := []byte{'k', byte(i >> 4), byte(i & 15)}
			v := make([]byte, 100)
			v[0] = byte(i)
			if err := tx.Insert(t, k, v); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	// The ISCAN shapes read a second copy of the rows, so the write shapes
	// above keep pricing an unindexed table. Secondary key = the primary
	// key's two counter bytes: secondary order parallels primary order
	// (the clustered case a batched scan streams).
	rows := db.CreateTable("rows")
	if err := db.Run(0, func(tx *silo.Tx) error {
		return tx.Scan(t, []byte{0}, nil, func(k, v []byte) bool {
			return tx.Insert(rows, k, v) == nil
		})
	}); err != nil {
		tb.Fatal(err)
	}
	key := []silo.IndexSeg{{Off: 1, Len: 2}}
	if _, err := db.CreateIndexSpec(0, rows, "rows_ix", false, key); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.CreateIndexSpec(0, rows, "rows_cov", false, key,
		silo.IndexSeg{FromValue: true, Off: 0, Len: 16}); err != nil {
		tb.Fatal(err)
	}
	// Snapshot reads see versions from epochs before the snapshot epoch.
	loaded := db.Epoch()
	for i := 0; db.Store().Epochs().SnapshotGlobal() <= loaded; i++ {
		if i == 1000 {
			tb.Fatal("snapshot epoch never passed the load")
		}
		clk.Advance(epoch.DefaultInterval)
	}
	st := <-s.ctxs
	if st.w != 0 {
		tb.Fatalf("the pool handed out worker %d's context first", st.w)
	}
	return s, st, func() {
		s.Close()
		db.Close()
	}
}

// runCycle is the decode → execute → encode → release cycle one request
// pays between a connection's reader and its writer: exactly runJob on
// the first job of chain c, with the response buffer recycled as the
// writer would. The returned frame length keeps the compiler honest.
func runCycle(tb testing.TB, s *Server, st *execState, c *chain, frame []byte) int {
	j := &c.jobs[0]
	if err := wire.DecodeRequestInto(frame[4:], &j.req, &j.scratch); err != nil {
		tb.Fatal(err)
	}
	s.runJob(st, c, j, time.Now())
	n := len(j.rb.b)
	s.putBuf(j.rb)
	return n
}

// execShapes are the steady-state request shapes. The ISCAN shapes each
// page 64 visible rows.
var execShapes = []struct {
	name string
	req  wire.Request
}{
	{"get", wire.Request{Ops: []wire.Op{{Kind: wire.KindGet, Table: "bench", Key: []byte{'k', 3, 7}}}}},
	{"put", wire.Request{Ops: []wire.Op{{Kind: wire.KindPut, Table: "bench", Key: []byte{'k', 3, 7}, Value: make([]byte, 100)}}}},
	{"add", wire.Request{Ops: []wire.Op{{Kind: wire.KindAdd, Table: "bench", Key: []byte{'k', 2, 4}, Delta: 1}}}},
	{"scan", wire.Request{Ops: []wire.Op{
		{Kind: wire.KindScan, Table: "bench", Key: []byte{'k', 2, 0}, HasHi: true, Hi: []byte{'k', 8, 0}, Limit: 64}}}},
	{"txn", wire.Request{Txn: true, Ops: txnOps()}},
	// The traced shapes: a TRACE frame runs on the same exec state as a
	// TXN and its TRACER is encoded into the same pooled buffer, so asking
	// for a timeline costs clock reads, not allocations.
	{"trace-get", wire.Request{Trace: true, Ops: txnOps()[:1]}},
	{"trace-txn", wire.Request{Trace: true, Ops: txnOps()}},
	{"iscan-batched", wire.Request{Ops: []wire.Op{iscanOp("rows_ix", false, false)}}},
	{"iscan-covering", wire.Request{Ops: []wire.Op{iscanOp("rows_cov", true, false)}}},
	{"iscan-snapshot", wire.Request{Ops: []wire.Op{iscanOp("rows_ix", false, true)}}},
	{"iscan-snapshot-covering", wire.Request{Ops: []wire.Op{iscanOp("rows_cov", true, true)}}},
}

// txnOps is the 4-op transaction the TXN and TRACE shapes share.
func txnOps() []wire.Op {
	return []wire.Op{
		{Kind: wire.KindGet, Table: "bench", Key: []byte{'k', 1, 2}},
		{Kind: wire.KindPut, Table: "bench", Key: []byte{'k', 1, 2}, Value: make([]byte, 100)},
		{Kind: wire.KindAdd, Table: "bench", Key: []byte{'k', 2, 4}, Delta: 1},
		{Kind: wire.KindGet, Table: "bench", Key: []byte{'k', 9, 9}},
	}
}

func iscanOp(index string, covering, snapshot bool) wire.Op {
	return wire.Op{Kind: wire.KindIScan, Index: index, Key: []byte{2, 0}, HasHi: true, Hi: []byte{8, 0},
		Limit: 64, Covering: covering, Snapshot: snapshot}
}

// shapeFrame arms slow-op capture at slowAt (0: off; an hour: armed and
// never firing, which traces whatever the client did not) and returns the
// request frame of the named execShapes entry.
func shapeFrame(tb testing.TB, s *Server, name string, slowAt time.Duration) []byte {
	s.opts.SlowThreshold = slowAt // read per request; the server has no connections
	for _, sh := range execShapes {
		if sh.name == name {
			frame, err := wire.AppendRequest(nil, &sh.req)
			if err != nil {
				tb.Fatal(err)
			}
			return frame
		}
	}
	tb.Fatalf("no shape %q", name)
	return nil
}

// benchShape prices the named shape's cycle.
func benchShape(b *testing.B, name string, slowAt time.Duration) {
	s, st, stop := benchExec(b)
	defer stop()
	frame := shapeFrame(b, s, name, slowAt)
	c := newChain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCycle(b, s, st, c, frame)
	}
}

func BenchmarkServerExecGet(b *testing.B)            { benchShape(b, "get", 0) }
func BenchmarkServerExecPut(b *testing.B)            { benchShape(b, "put", 0) }
func BenchmarkServerExecTxn(b *testing.B)            { benchShape(b, "txn", 0) }
func BenchmarkServerExecTraceGet(b *testing.B)       { benchShape(b, "trace-get", 0) }
func BenchmarkServerExecTraceTxn(b *testing.B)       { benchShape(b, "trace-txn", 0) }
func BenchmarkServerExecSlowCaptureGet(b *testing.B) { benchShape(b, "get", time.Hour) }
func BenchmarkServerExecScan(b *testing.B)           { benchShape(b, "scan", 0) }
func BenchmarkServerExecIScanBatched(b *testing.B)   { benchShape(b, "iscan-batched", 0) }
func BenchmarkServerExecIScanCovering(b *testing.B)  { benchShape(b, "iscan-covering", 0) }
func BenchmarkServerExecIScanSnapshot(b *testing.B)  { benchShape(b, "iscan-snapshot", 0) }
