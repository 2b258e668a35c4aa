package server_test

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"silo"
	"silo/client"
	"silo/internal/obs"
	"silo/internal/sim"
	"silo/server"
	"silo/wire"
)

// durableOpts is a durability config tuned for tests: short epochs so
// group release cycles fast, honest fsync so a copied log directory is a
// valid crash image.
func durableOpts(dir string) silo.Options {
	return silo.Options{
		Workers:       2,
		EpochInterval: 2 * time.Millisecond,
		Durability:    &silo.DurabilityOptions{Dir: dir, Loggers: 2, Sync: true},
	}
}

// copyDir snapshots a log directory mid-run. Because every acked write's
// bytes were written and fsynced before its response was released, the
// copy is a valid crash image for everything acknowledged before the
// copy started (a torn tail beyond the last durable frame is fine —
// recovery skips it).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "crash-image")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue // checkpoints are not taken in these tests
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// recoverInto opens a fresh database over dir and recovers it.
func recoverInto(t *testing.T, dir string) *silo.DB {
	t.Helper()
	db, err := silo.Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Recover(); err != nil {
		db.Close()
		t.Fatalf("recover: %v", err)
	}
	t.Cleanup(db.Close)
	return db
}

// TestGroupAcksAreDurable hammers a durable group-ack server with
// concurrent writers, then treats a point-in-time copy of the log
// directory as a crash image: every acknowledged write must recover from
// it. This is the wire-level §4.10 contract — an OK frame means the
// write's epoch was already durable — checked without any clean
// shutdown.
func TestGroupAcksAreDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	db, srv, cl := startServer(t, durableOpts(dir),
		server.Options{Acks: server.AckGroup, DisableAutoCreate: true},
		client.Options{Conns: 2})
	db.CreateTable("t")
	if got := srv.AckMode(); got != server.AckGroup {
		t.Fatalf("AckMode = %v, want group", got)
	}

	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-k%d", g, i)
				if err := cl.Insert("t", []byte(k), []byte(k)); err != nil {
					errs <- fmt.Errorf("insert %s: %w", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every insert above is acknowledged: a crash image taken now must
	// contain all of them.
	img := copyDir(t, dir)
	db2 := recoverInto(t, img)
	tbl := db2.Table("t")
	if tbl == nil {
		t.Fatal("table t not recovered")
	}
	for g := 0; g < writers; g++ {
		for i := 0; i < perWriter; i++ {
			k := fmt.Sprintf("w%d-k%d", g, i)
			err := db2.Run(0, func(tx *silo.Tx) error {
				v, err := tx.Get(tbl, []byte(k))
				if err != nil {
					return err
				}
				if string(v) != k {
					return fmt.Errorf("value = %q", v)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("acknowledged write %s lost in crash image: %v", k, err)
			}
		}
	}
}

// TestGroupAcksPreserveWireOrder pipelines a parked write followed by an
// immediately-releasable read on one raw connection: the read's response
// must wait behind the write's durable release, never overtake it. A
// traced write waits like any other: its TRACER keeps its place in wire
// order, and its Fsync span is the wait the writer recorded for it.
func TestGroupAcksPreserveWireOrder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	db, err := silo.Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable("t")
	srv := server.New(db, server.Options{Acks: server.AckGroup, DisableAutoCreate: true})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))

	// Phase 1: a pipelined burst of inserts. Every response parks until
	// its epoch is durable, and they must still drain in request order.
	const n = 20
	var out []byte
	for i := 0; i < n; i++ {
		out, err = wire.AppendRequest(out, &wire.Request{Ops: []wire.Op{{
			Kind: wire.KindInsert, Table: "t",
			Key: []byte{byte(i)}, Value: []byte{byte(i)},
		}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		payload, err := wire.ReadFrame(nc, 0)
		if err != nil {
			t.Fatalf("insert response %d: %v", i, err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil || resp.Kind != wire.KindOK {
			t.Fatalf("insert response %d = %+v, %v", i, resp, err)
		}
	}

	// Phase 2: interleave parked writes with immediately-releasable
	// reads on the same connection. Execution may reorder across workers,
	// but each read's response must still queue behind the parked write
	// sent before it — strict alternation OK, VALUE. (The reads hit the
	// phase-1 keys so both execution orders yield a value, old or new.)
	out = out[:0]
	for i := 0; i < n; i++ {
		out, err = wire.AppendRequest(out, &wire.Request{Ops: []wire.Op{{
			Kind: wire.KindPut, Table: "t",
			Key: []byte{byte(i)}, Value: []byte{byte(i), byte(i)},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		out, err = wire.AppendRequest(out, &wire.Request{Ops: []wire.Op{{
			Kind: wire.KindGet, Table: "t", Key: []byte{byte(i)},
		}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		payload, err := wire.ReadFrame(nc, 0)
		if err != nil {
			t.Fatalf("put response %d: %v", i, err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil || resp.Kind != wire.KindOK {
			t.Fatalf("put response %d = %+v, %v; a read's response overtook a parked write", i, resp, err)
		}
		payload, err = wire.ReadFrame(nc, 0)
		if err != nil {
			t.Fatalf("get response %d: %v", i, err)
		}
		resp, err = wire.DecodeResponse(payload)
		if err != nil || resp.Kind != wire.KindValue || len(resp.Value) == 0 || resp.Value[0] != byte(i) {
			t.Fatalf("get response %d = %+v, %v", i, resp, err)
		}
	}

	// Phase 3: a parked write with a TRACE write behind it. The TRACER was
	// encoded when its worker finished, before anyone knew how long it
	// would park; it must still arrive second, carrying its results.
	tracePut := func(out []byte, i int) []byte {
		out, err := wire.AppendRequest(out, &wire.Request{Trace: true, Ops: []wire.Op{
			{Kind: wire.KindPut, Table: "t", Key: []byte{byte(i)}, Value: []byte{byte(i), 3}},
			{Kind: wire.KindGet, Table: "t", Key: []byte{byte(i)}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	readTracer := func() wire.Response {
		payload, err := wire.ReadFrame(nc, 0)
		if err != nil {
			t.Fatalf("trace response: %v", err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil || resp.Kind != wire.KindTraceR || resp.Spans == nil ||
			len(resp.Results) != 2 || !resp.Results[1].HasValue || resp.Results[1].Value[1] != 3 {
			t.Fatalf("trace response = %+v, %v", resp, err)
		}
		return resp
	}
	out, err = wire.AppendRequest(out[:0], &wire.Request{Ops: []wire.Op{{
		Kind: wire.KindPut, Table: "t", Key: []byte{0}, Value: []byte{0, 0},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(tracePut(out, 1)); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(nc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := wire.DecodeResponse(payload); err != nil || resp.Kind != wire.KindOK {
		t.Fatalf("put response = %+v, %v; a TRACER overtook a parked write", resp, err)
	}
	readTracer()

	// Phase 4: a lone TRACE write between two readings of the release-lag
	// histogram, so the lag recorded in between is its own. The writer
	// added exactly that wait to the frame's Fsync span.
	lagSum := func() (sum, count uint64) {
		var snap obs.Snapshot
		srv.CollectObs(&snap)
		h := snap.Get("silo_server_release_lag_ns", "").Hist
		return h.Sum, h.Count
	}
	sum0, n0 := lagSum()
	if _, err := nc.Write(tracePut(nil, 2)); err != nil {
		t.Fatal(err)
	}
	sp := readTracer().Spans
	sum1, n1 := lagSum()
	if n1 != n0+1 {
		t.Fatalf("the writer released %d responses for one traced write", n1-n0)
	}
	if lag := time.Duration(sum1 - sum0); sp.Fsync < lag {
		t.Errorf("TRACER Fsync = %v, below the %v the writer held it", sp.Fsync, lag)
	}
}

// serveFrozen opens a durable database on a simulated clock that is never
// advanced — no logger pass runs and no epoch becomes durable, a stalled
// disk as far as acks are concerned — with table t holding k, and serves
// it with group acks. Cleanup closes the database first, which is what
// releases a writer still waiting, then the server.
func serveFrozen(t *testing.T) (*silo.DB, *server.Server, string) {
	t.Helper()
	db, err := silo.Open(silo.Options{
		Workers: 2,
		Clock:   sim.NewClock(),
		Durability: &silo.DurabilityOptions{
			Dir: "db", Sync: true, FS: sim.NewFS(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	if err := db.Run(0, func(tx *silo.Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v0")) }); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Options{Acks: server.AckGroup, DisableAutoCreate: true})
	t.Cleanup(func() {
		db.Close()
		srv.Close()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return db, srv, ln.Addr().String()
}

// TestReadAheadOfParkedWriteIsAnswered: a response ahead of a group-acked
// write on the same connection is sent without waiting for the write's
// epoch. One TCP write carries a GET and then a PUT of the same key; the
// GET's answer must arrive while D is held, and the PUT's OK must not. The
// writer used to hold the GET's encoded answer until the PUT was released
// — one fsync pass at best, forever on a stalled disk.
func TestReadAheadOfParkedWriteIsAnswered(t *testing.T) {
	_, _, addr := serveFrozen(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	out, err := wire.AppendRequest(nil, &wire.Request{Ops: []wire.Op{{Kind: wire.KindGet, Table: "t", Key: []byte("k")}}})
	if err != nil {
		t.Fatal(err)
	}
	out, err = wire.AppendRequest(out, &wire.Request{Ops: []wire.Op{{Kind: wire.KindPut, Table: "t", Key: []byte("k"), Value: []byte("v1")}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(time.Second))
	payload, err := wire.ReadFrame(nc, 0)
	if err != nil {
		t.Fatalf("GET answer: %v; it waited behind the PUT's durability", err)
	}
	if resp, err := wire.DecodeResponse(payload); err != nil || resp.Kind != wire.KindValue || string(resp.Value) != "v0" {
		t.Fatalf("GET answer = %+v, %v", resp, err)
	}
	nc.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if payload, err := wire.ReadFrame(nc, 0); err == nil {
		resp, _ := wire.DecodeResponse(payload)
		t.Fatalf("PUT answered (%+v) while its epoch cannot be durable", resp)
	}
}

// TestReaderStopsAtPipeline: a reader runs at most Options.Pipeline
// requests ahead of its writer, plus the one burst it read last. With D
// held back the writer waits on the first PUT forever, so of 4 × Pipeline
// PUT frames sent on one connection the server must execute at least
// Pipeline — the reader does not stop early — and then stay at or under
// Pipeline + one chain of 16.
func TestReaderStopsAtPipeline(t *testing.T) {
	const pipeline, maxChain = 128, 16 // the server's defaults
	_, srv, addr := serveFrozen(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var out []byte
	for i := 0; i < 4*pipeline; i++ {
		out, err = wire.AppendRequest(out, &wire.Request{Ops: []wire.Op{{Kind: wire.KindPut, Table: "t", Key: []byte("k"), Value: []byte{byte(i)}}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	go nc.Write(out)
	executed := func() uint64 {
		var snap obs.Snapshot
		srv.CollectObs(&snap)
		return snap.Value("silo_server_requests_total", "")
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(5 * time.Second)
	for executed() < pipeline {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("the reader stopped after %d requests, short of Pipeline = %d", executed(), pipeline)
		}
	}
	// Give a reader that ignored the bound time to run past it.
	settle := time.After(100 * time.Millisecond)
	for settled := false; !settled; {
		if n := executed(); n > pipeline+maxChain {
			t.Fatalf("%d requests executed ahead of a stalled writer, want at most %d", n, pipeline+maxChain)
		}
		select {
		case <-tick.C:
		case <-settle:
			settled = true
		}
	}
}

// TestGroupAckCloseFirst: closing the database before the server never
// strands a writer waiting for D. Its final log drain makes every
// committed epoch durable, and WaitDurable returns once it has run — also
// for the epoch a DDL frame reads from E — so the waiting writes are
// answered OK and Server.Close returns.
func TestGroupAckCloseFirst(t *testing.T) {
	db, srv, addr := serveFrozen(t)
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	acks := make(chan error, 2)
	go func() { acks <- cl.Put("t", []byte("k"), []byte("v1")) }()
	go func() {
		acks <- cl.CreateIndex("t_by_v", "t", false, []wire.IndexSeg{{FromValue: true, Off: 0, Len: 1}})
	}()
	// Close only once both writes committed and wait in the writer.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var snap obs.Snapshot
		srv.CollectObs(&snap)
		if snap.Value("silo_server_parked_responses", "") == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the writes never reached the writer's durability wait")
		}
	}
	db.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-acks:
			if err != nil {
				t.Fatalf("group-acked write after the database closed: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a writer stayed stranded after the database closed")
		}
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung after the database closed first")
	}
}

// TestTraceNeverWaitsOnImmediateAcks: on a durable server that acks at
// in-memory commit, a TRACE write is acknowledged like any other write —
// at once, with Fsync = 0, because the client waited for no fsync. It
// used to block its worker until the epoch was durable, which let any
// client stall a worker for a whole epoch per frame.
func TestTraceNeverWaitsOnImmediateAcks(t *testing.T) {
	opts := durableOpts(filepath.Join(t.TempDir(), "log"))
	opts.EpochInterval = time.Second
	db, _, cl := startServer(t, opts, server.Options{DisableAutoCreate: true}, client.Options{})
	db.CreateTable("t")
	start := time.Now()
	_, sp, err := cl.Txn().Insert("t", []byte("k"), []byte("v")).Trace()
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Errorf("TRACE write took %v on an immediate-ack server with a 1s epoch: it waited for durability", took)
	}
	if sp.Fsync != 0 {
		t.Errorf("Fsync = %v, want 0: nothing waited for an fsync", sp.Fsync)
	}
}

// TestGroupAckClosesEpochOnDemand: a parked write is demand for its
// epoch, so the epoch closes as soon as the one before it is durable
// instead of at its tick. With a 1 s epoch, 20 sequential group-acked
// writes used to take about 20 s (each ack waited for a tick); they now
// take about 20 fsync passes.
func TestGroupAckClosesEpochOnDemand(t *testing.T) {
	opts := durableOpts(filepath.Join(t.TempDir(), "log"))
	opts.EpochInterval = time.Second
	db, _, cl := startServer(t, opts, server.Options{Acks: server.AckGroup, DisableAutoCreate: true}, client.Options{})
	db.CreateTable("t")
	start := time.Now()
	for i := 0; i < 20; i++ {
		if err := cl.Insert("t", []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("20 group-acked writes took %v under a 1s epoch: acks waited for the tick", took)
	}
	if n := db.Observe().Value("silo_epoch_advances_total", "demand"); n == 0 {
		t.Error("no epoch was closed on demand")
	}
}

// TestNoDemandWithoutWaiters: nothing advances the epoch early unless
// someone waits for durability — not a durable server that acks writes
// at in-memory commit, and not a group-ack server serving only reads
// (reads park nothing). Their epochs advance on the tick alone.
func TestNoDemandWithoutWaiters(t *testing.T) {
	expectTicksOnly := func(t *testing.T, db *silo.DB) {
		t.Helper()
		snap := db.Observe()
		if n := snap.Value("silo_epoch_advances_total", "demand"); n != 0 {
			t.Errorf("%d epochs closed on demand with no durability waiter", n)
		}
		if n := snap.Value("silo_epoch_advances_total", "tick"); n == 0 {
			t.Error("no tick advances either: the epoch thread did not run")
		}
	}

	t.Run("immediate acks", func(t *testing.T) {
		db, _, cl := startServer(t, durableOpts(filepath.Join(t.TempDir(), "log")),
			server.Options{DisableAutoCreate: true}, client.Options{})
		db.CreateTable("t")
		if err := cl.Insert("t", []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
			if err := cl.Put("t", []byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		expectTicksOnly(t, db)
	})

	t.Run("group acks, reads only", func(t *testing.T) {
		db, err := silo.Open(durableOpts(filepath.Join(t.TempDir(), "log")))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tbl := db.CreateTable("t")
		// Written before the server exists: no waiter.
		if err := db.Run(0, func(tx *silo.Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v")) }); err != nil {
			t.Fatal(err)
		}
		srv := server.New(db, server.Options{Acks: server.AckGroup, DisableAutoCreate: true})
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		cl, err := client.Dial(ln.Addr().String(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
			if _, err := cl.Get("t", []byte("k")); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Scan("t", []byte("a"), nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		expectTicksOnly(t, db)
	})
}

// TestAckModesDegradeWithoutDurability: group acks need a durable epoch to
// wait for; on a MemSilo database the server falls back to immediate acks
// rather than wedging every write forever.
func TestAckModesDegradeWithoutDurability(t *testing.T) {
	for _, mode := range []server.AckMode{server.AckImmediate, server.AckGroup} {
		_, srv, cl := startServer(t, silo.Options{}, server.Options{Acks: mode}, client.Options{})
		if got := srv.AckMode(); got != server.AckImmediate {
			t.Fatalf("AckMode(%v without durability) = %v, want immediate", mode, got)
		}
		if err := cl.Insert("t", []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanLimitOverCapRejected: a SCAN limit beyond the server's MaxScan
// is rejected with CodeInvalid, exactly like ISCAN, instead of the
// historical silent clamp (which returned fewer pairs than requested with
// no indication the range had more).
func TestScanLimitOverCapRejected(t *testing.T) {
	_, _, cl := startServer(t, silo.Options{}, server.Options{MaxScan: 4}, client.Options{})
	for i := 0; i < 8; i++ {
		if err := cl.Insert("s", []byte{byte('a' + i)}, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// At or under the cap: fine.
	if pairs, err := cl.Scan("s", nil, nil, 4); err != nil || len(pairs) != 4 {
		t.Fatalf("scan at cap: %d pairs, %v", len(pairs), err)
	}
	// Over the cap: rejected, not clamped.
	if _, err := cl.Scan("s", nil, nil, 5); !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("scan over cap: %v, want ErrInvalid", err)
	}
	// No explicit limit still means "server cap", not an error.
	if pairs, err := cl.Scan("s", nil, nil, 0); err != nil || len(pairs) != 4 {
		t.Fatalf("uncapped scan: %d pairs, %v", len(pairs), err)
	}
}
