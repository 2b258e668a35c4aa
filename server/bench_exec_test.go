package server

import (
	"testing"
	"time"

	"silo"
	"silo/internal/race"
	"silo/wire"
)

// bench_exec_test.go prices the server's steady-state request lifecycle
// — decode into per-connection scratch, execute on the worker's recycled
// exec state, encode into a pooled response buffer — without a socket in
// the way. The claim under test is the zero-allocation wire hot path:
// after warmup, a non-DDL GET/PUT/TXN/SCAN/ISCAN costs 0 allocs/op end to
// end in package server, traced (a TRACE frame, or everything under
// slow-op capture) or not (TestServerExecAllocs enforces it; CI's
// bench-exec job gates on the benchmark output). BENCH_EXEC.json holds
// the reference snapshot.

// benchExec builds a server with no connections over an in-memory
// database and takes worker context 0 out of its pool, so the benchmark
// drives that context directly: exactly the code a connection reader runs
// per request, minus the socket. It returns once the snapshot epoch covers
// the load, so snapshot ISCANs page the same rows as the serializable
// ones.
func benchExec(tb testing.TB) (*Server, *execState, func()) {
	tb.Helper()
	db, err := silo.Open(silo.Options{Workers: 2, EpochInterval: 2 * time.Millisecond})
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
	for deadline := time.Now().Add(5 * time.Second); db.Store().Epochs().SnapshotGlobal() <= loaded; {
		if time.Now().After(deadline) {
			tb.Fatal("snapshot epoch never passed the load")
		}
		time.Sleep(time.Millisecond)
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

func benchLoop(b *testing.B, s *Server, st *execState, frame []byte) {
	c := newChain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCycle(b, s, st, c, frame)
	}
}

func BenchmarkServerExecGet(b *testing.B) {
	s, st, stop := benchExec(b)
	defer stop()
	frame, _ := wire.AppendRequest(nil, &wire.Request{Ops: []wire.Op{
		{Kind: wire.KindGet, Table: "bench", Key: []byte{'k', 3, 7}},
	}})
	benchLoop(b, s, st, frame)
}

func BenchmarkServerExecPut(b *testing.B) {
	s, st, stop := benchExec(b)
	defer stop()
	frame, _ := wire.AppendRequest(nil, &wire.Request{Ops: []wire.Op{
		{Kind: wire.KindPut, Table: "bench", Key: []byte{'k', 3, 7}, Value: make([]byte, 100)},
	}})
	benchLoop(b, s, st, frame)
}

func BenchmarkServerExecTxn(b *testing.B) {
	s, st, stop := benchExec(b)
	defer stop()
	frame, _ := wire.AppendRequest(nil, &wire.Request{Txn: true, Ops: txnOps()})
	benchLoop(b, s, st, frame)
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

// The traced shapes: a TRACE frame runs on the same exec state as a TXN
// and its TRACER is encoded into the same pooled buffer, so asking for a
// timeline costs clock reads, not allocations.
func BenchmarkServerExecTraceGet(b *testing.B) {
	s, st, stop := benchExec(b)
	defer stop()
	frame, _ := wire.AppendRequest(nil, &wire.Request{Trace: true, Ops: txnOps()[:1]})
	benchLoop(b, s, st, frame)
}

func BenchmarkServerExecTraceTxn(b *testing.B) {
	s, st, stop := benchExec(b)
	defer stop()
	frame, _ := wire.AppendRequest(nil, &wire.Request{Trace: true, Ops: txnOps()})
	benchLoop(b, s, st, frame)
}

// BenchmarkServerExecSlowCaptureGet prices slow-op capture when armed and
// not firing: every request is traced, none crosses the threshold.
func BenchmarkServerExecSlowCaptureGet(b *testing.B) {
	s, st, stop := benchExec(b)
	defer stop()
	s.opts.SlowThreshold = time.Hour // read per request; the server has no connections
	frame, _ := wire.AppendRequest(nil, &wire.Request{Ops: txnOps()[:1]})
	benchLoop(b, s, st, frame)
}

func BenchmarkServerExecScan(b *testing.B) {
	s, st, stop := benchExec(b)
	defer stop()
	frame, _ := wire.AppendRequest(nil, &wire.Request{Ops: []wire.Op{
		{Kind: wire.KindScan, Table: "bench", Key: []byte{'k', 2, 0}, HasHi: true, Hi: []byte{'k', 8, 0}, Limit: 64},
	}})
	benchLoop(b, s, st, frame)
}

func iscanOp(index string, covering, snapshot bool) wire.Op {
	return wire.Op{Kind: wire.KindIScan, Index: index, Key: []byte{2, 0}, HasHi: true, Hi: []byte{8, 0},
		Limit: 64, Covering: covering, Snapshot: snapshot}
}

func BenchmarkServerExecIScanBatched(b *testing.B) {
	s, st, stop := benchExec(b)
	defer stop()
	frame, _ := wire.AppendRequest(nil, &wire.Request{Ops: []wire.Op{iscanOp("rows_ix", false, false)}})
	benchLoop(b, s, st, frame)
}

func BenchmarkServerExecIScanCovering(b *testing.B) {
	s, st, stop := benchExec(b)
	defer stop()
	frame, _ := wire.AppendRequest(nil, &wire.Request{Ops: []wire.Op{iscanOp("rows_cov", true, false)}})
	benchLoop(b, s, st, frame)
}

func BenchmarkServerExecIScanSnapshot(b *testing.B) {
	s, st, stop := benchExec(b)
	defer stop()
	frame, _ := wire.AppendRequest(nil, &wire.Request{Ops: []wire.Op{iscanOp("rows_ix", false, true)}})
	benchLoop(b, s, st, frame)
}

// TestServerExecAllocs is the allocation gate behind the benchmarks:
// after one warmup pass, the full decode→exec→encode cycle of each
// steady-state shape must allocate nothing. It runs in ordinary test
// sweeps, so an allocation regression fails `go test` long before
// anyone reads a benchmark artifact.
func TestServerExecAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, st, stop := benchExec(t)
	defer stop()
	shapes := []struct {
		name string
		req  wire.Request
	}{
		{"get", wire.Request{Ops: []wire.Op{
			{Kind: wire.KindGet, Table: "bench", Key: []byte{'k', 3, 7}}}}},
		{"put", wire.Request{Ops: []wire.Op{
			{Kind: wire.KindPut, Table: "bench", Key: []byte{'k', 3, 7}, Value: make([]byte, 100)}}}},
		{"add", wire.Request{Ops: []wire.Op{
			{Kind: wire.KindAdd, Table: "bench", Key: []byte{'k', 2, 4}, Delta: 1}}}},
		{"scan", wire.Request{Ops: []wire.Op{
			{Kind: wire.KindScan, Table: "bench", Key: []byte{'k', 2, 0}, HasHi: true, Hi: []byte{'k', 8, 0}, Limit: 64}}}},
		{"txn", wire.Request{Txn: true, Ops: txnOps()[:3]}},
		{"trace-get", wire.Request{Trace: true, Ops: txnOps()[:1]}},
		{"trace-txn", wire.Request{Trace: true, Ops: txnOps()}},
		{"iscan-batched", wire.Request{Ops: []wire.Op{iscanOp("rows_ix", false, false)}}},
		{"iscan-covering", wire.Request{Ops: []wire.Op{iscanOp("rows_cov", true, false)}}},
		{"iscan-snapshot", wire.Request{Ops: []wire.Op{iscanOp("rows_ix", false, true)}}},
		{"iscan-snapshot-covering", wire.Request{Ops: []wire.Op{iscanOp("rows_cov", true, true)}}},
	}
	// Each ISCAN shape prices a full page of visible rows.
	for _, sh := range shapes {
		if op := sh.req.Ops[0]; op.Kind == wire.KindIScan {
			if page := execFrame(t, s, st, op); len(page.Entries) != 64 {
				t.Fatalf("%s pages %d rows (%v %s), want 64", sh.name, len(page.Entries), page.Kind, page.Msg)
			}
		}
	}
	c := newChain()
	// Every shape runs twice: plain, and with slow-op capture armed (and
	// never firing), which traces whatever the client did not.
	for _, slowAt := range []time.Duration{0, time.Hour} {
		s.opts.SlowThreshold = slowAt // read per request; the server has no connections
		for _, sh := range shapes {
			frame, err := wire.AppendRequest(nil, &sh.req)
			if err != nil {
				t.Fatal(err)
			}
			cycle := func() { runCycle(t, s, st, c, frame) }
			for i := 0; i < 32; i++ {
				cycle() // warm scratch, arenas, and engine-side buffers
			}
			if n := testing.AllocsPerRun(200, cycle); n > 0 {
				t.Errorf("%s (slow capture %v): %.1f allocs/op on the steady-state exec path, want 0", sh.name, slowAt, n)
			}
		}
	}
}
