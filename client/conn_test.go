package client

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"silo"
	"silo/internal/ledger"
	"silo/server"
	"silo/wire"
)

// countConn counts Write calls, the client's syscalls per request. It
// passes its socket on, so the connection's reader writes under the same
// bound as on a dialed connection.
type countConn struct {
	*net.TCPConn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(p)
}

// wireEnv is an in-process server on loopback and one client whose
// connections count their writes.
type wireEnv struct {
	db    *silo.DB
	srv   *server.Server
	cl    *Client
	conns []*countConn
}

func newWireEnv(tb testing.TB, conns int) *wireEnv {
	tb.Helper()
	db, err := silo.Open(silo.Options{Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	e := &wireEnv{db: db, srv: server.New(db, server.Options{}), cl: &Client{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go e.srv.Serve(ln)
	tb.Cleanup(func() {
		e.cl.Close()
		e.srv.Close()
		db.Close()
	})
	for i := 0; i < conns; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			tb.Fatal(err)
		}
		cc := &countConn{TCPConn: nc.(*net.TCPConn)}
		e.conns = append(e.conns, cc)
		e.cl.conns = append(e.cl.conns, newConn(cc, wire.MaxFrame))
	}
	return e
}

func (e *wireEnv) writes() int64 {
	var n int64
	for _, c := range e.conns {
		n += c.writes.Load()
	}
	return n
}

func (e *wireEnv) dispatches() uint64 {
	snap := e.db.Observe()
	e.srv.CollectObs(snap)
	return snap.Value("silo_server_dispatches_total", "")
}

// pipelineShape is conns×window: window closed-loop callers per
// connection issuing 80% GET / 20% ADD. serial is one caller on one
// connection, where writes and dispatches are exactly one per request.
type pipelineShape struct {
	name          string
	conns, window int
}

var pipelineShapes = []pipelineShape{{"serial", 1, 1}, {"1x8", 1, 8}, {"2x8", 2, 8}, {"1x64", 1, 64}}

// pipeline loads 1024 keys through a wire environment for shape, calls
// start, and issues n requests from shape's callers. It returns the
// client writes, server dispatches and process-wide allocations they took.
func pipeline(tb testing.TB, shape pipelineShape, n int, start func()) (writes, dispatches, mallocs uint64) {
	e := newWireEnv(tb, shape.conns)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%05d", i))
		if err := e.cl.Insert("t", keys[i], make([]byte, 100)); err != nil {
			tb.Fatal(err)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	start()
	runtime.ReadMemStats(&before)
	w0, d0 := e.writes(), e.dispatches()
	for c := 0; c < shape.conns*shape.window; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// One connection per caller group: the window is the number of
			// callers parked on a connection.
			cn := e.cl.conns[c%shape.conns]
			for {
				i := int(next.Add(1))
				if i > n {
					return
				}
				op := wire.Op{Kind: wire.KindGet, Table: "t", Key: keys[i*7%len(keys)]}
				if i%5 == 0 {
					op.Kind, op.Delta = wire.KindAdd, 1
				}
				resp, err := cn.roundTrip(&wire.Request{Ops: []wire.Op{op}})
				if err != nil || resp.Kind != wire.KindValue {
					tb.Errorf("request %d: %v, %v", i, resp.Kind, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	writes, dispatches = uint64(e.writes()-w0), e.dispatches()-d0
	runtime.ReadMemStats(&after)
	return writes, dispatches, after.Mallocs - before.Mallocs
}

// BenchmarkPipelinedRoundTrip reports pipeline's counts per request as
// writes/op, dispatch/op and allocs/op, beside ns/op, which is trajectory
// only.
func BenchmarkPipelinedRoundTrip(b *testing.B) {
	for _, shape := range pipelineShapes {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			w, d, _ := pipeline(b, shape, b.N, b.ResetTimer)
			b.StopTimer()
			b.ReportMetric(float64(w)/float64(b.N), "writes/op")
			b.ReportMetric(float64(d)/float64(b.N), "dispatch/op")
		})
	}
}

// TestLedger holds the wire path's counts per request: pipeline's at
// serial and 2x8, and what a Get or an Add allocates in the client (the
// response payload its value aliases; no channel, no request on the heap,
// no frame header) against a stub peer that answers every frame with one
// canned VALUE and allocates nothing itself.
func TestLedger(t *testing.T) {
	const n = 200_000
	measure := func(shape pipelineShape) func() [3]float64 {
		return ledger.Once(func() [3]float64 {
			w, d, a := pipeline(t, shape, n, func() {})
			// Allocations per request are truncated to a whole number, as
			// testing reports allocs/op.
			return [3]float64{float64(w) / n, float64(d) / n, float64(a / n)}
		})
	}
	serial, wide := measure(pipelineShapes[0]), measure(pipelineShapes[2])
	const how = "200 000 requests on an in-process server over loopback: conn.Write calls, silo_server_dispatches_total, and MemStats.Mallocs as whole allocs/op"
	rows := []ledger.Row{
		{Layer: "client", Count: "writes/op serial", Bound: ledger.Exactly(1), How: how,
			Claim: "a lone request is a burst of one: one write", Got: func() float64 { return serial()[0] }},
		{Layer: "server", Count: "dispatch/op serial", Bound: ledger.Exactly(1), How: how,
			Claim: "a lone request is a burst of one: one dispatch", Got: func() float64 { return serial()[1] }},
		{Layer: "wire", Count: "allocs/op serial", Bound: ledger.AtMost(1), How: how, Race: true,
			Claim: "the only allocation is the response payload the caller keeps", Got: func() float64 { return serial()[2] }},
		{Layer: "client", Count: "writes/op 2x8", Bound: ledger.AtMost(0.27), How: how,
			Claim: "a burst's follow-ups leave in one write (1.5 × the 0.176 measured on 2 vCPUs)", Got: func() float64 { return wide()[0] }},
		{Layer: "server", Count: "dispatch/op 2x8", Bound: ledger.AtMost(0.5), How: how,
			Claim: "a pipelined burst is one dispatch", Got: func() float64 { return wide()[1] }},
		{Layer: "wire", Count: "allocs/op 2x8", Bound: ledger.AtMost(1), How: how, Race: true,
			Claim: "the only allocation is the response payload the caller keeps", Got: func() float64 { return wide()[2] }},
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		reply, _ := wire.AppendResponse(nil, &wire.Response{Kind: wire.KindValue, Value: make([]byte, 8)})
		// Requests here are all shorter than the buffer, and arrive one at
		// a time: one Read is one frame.
		buf := make([]byte, 256)
		for {
			if _, err := nc.Read(buf); err != nil {
				return
			}
			if _, err := nc.Write(reply); err != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl := &Client{conns: []*conn{newConn(nc, wire.MaxFrame)}}
	defer cl.Close()
	key := []byte("counter")
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Get", func() error { _, err := cl.Get("t", key); return err }},
		{"Add", func() error { _, err := cl.Add("t", key, 1); return err }},
	} {
		rows = append(rows, ledger.Row{Layer: "client", Count: "allocs/call " + c.name, Bound: ledger.AtMost(1), Race: true,
			How:   "testing.AllocsPerRun(2000) of one call on the stub peer",
			Claim: "a call keeps the response payload and allocates nothing else",
			Got: func() float64 {
				return testing.AllocsPerRun(2000, func() {
					if err := c.call(); err != nil {
						t.Fatal(err)
					}
				})
			}})
	}
	ledger.Check(t, rows...)
}

// stalledConn returns a connection whose peer reads nothing, so the first
// caller's Write blocks and later callers only buffer their frames, and
// the peer's end of the pipe.
func stalledConn() (*conn, net.Conn) {
	near, far := net.Pipe()
	return newConn(near, wire.MaxFrame), far
}

// park starts n callers on c and returns once all of them have their
// waiter queued; their results arrive on the returned channel.
func park(t *testing.T, c *conn, n int) chan error {
	t.Helper()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := c.roundTrip(&wire.Request{Ops: []wire.Op{{Kind: wire.KindGet, Table: "t", Key: []byte{byte(i), byte(i >> 8)}}}})
			errs <- err
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.queued() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers queued", c.queued(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return errs
}

// queued is the number of waiters on c's ring.
func (c *conn) queued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestWriteErrorFailsEveryWaiterOnce: when the flusher's write fails,
// every queued caller gets the error — the flusher, and the callers whose
// bytes never left the buffer — and gets it once: a second signal would
// sit in a pooled waiter and wake some later call early with an empty
// response.
func TestWriteErrorFailsEveryWaiterOnce(t *testing.T) {
	c, far := stalledConn()
	const callers = 32
	errs := park(t, c, callers)
	c.mu.Lock()
	buffered, flushing := len(c.wbuf), c.flushing
	c.mu.Unlock()
	if !flushing || buffered == 0 {
		t.Fatalf("flushing=%v with %d bytes buffered; want one caller blocked in Write and the rest buffered", flushing, buffered)
	}
	far.Close() // the blocked Write fails

	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a call on a failed connection returned success")
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d callers never woke", callers-i, callers)
		}
	}
	if n := c.queued(); n != 0 {
		t.Errorf("%d waiters still queued after the failure", n)
	}
	if _, err := c.roundTrip(&wire.Request{Ops: []wire.Op{{Kind: wire.KindGet, Table: "t", Key: []byte("k")}}}); err == nil {
		t.Error("a call after the failure returned success")
	}
	// Every waiter went back to the pool drained.
	for i := 0; i < 4*callers; i++ {
		w := waiterPool.Get().(*waiter)
		if len(w.done) != 0 || w.err != nil || w.resp.Kind != 0 {
			t.Fatalf("pooled waiter holds a result: signal=%d err=%v resp=%v", len(w.done), w.err, w.resp.Kind)
		}
	}
}

// TestPipelineDepthExceededAppendsNothing: the call that finds the waiter
// queue full fails without leaving its frame in the write buffer, where
// it would go out with no waiter to match its response.
func TestPipelineDepthExceededAppendsNothing(t *testing.T) {
	c, far := stalledConn()
	defer far.Close()
	errs := park(t, c, maxDepth)

	c.mu.Lock()
	before := len(c.wbuf)
	c.mu.Unlock()
	_, err := c.roundTrip(&wire.Request{Ops: []wire.Op{{Kind: wire.KindGet, Table: "t", Key: []byte("one too many")}}})
	if err == nil || err == ErrClosed {
		t.Fatalf("call past the pipeline cap: %v, want the depth error", err)
	}
	c.mu.Lock()
	after, broken := len(c.wbuf), c.broken
	c.mu.Unlock()
	if after != before {
		t.Errorf("refused call left %d bytes in the write buffer", after-before)
	}
	if broken {
		t.Error("refused call broke the connection")
	}

	// The peer now answers every frame: the queued calls and a later one
	// all succeed on the same connection.
	go echoKeys(far, 0)
	for i := 0; i < maxDepth; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("queued call after the refusal: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d queued callers never completed", maxDepth-i)
		}
	}
	resp, err := c.roundTrip(&wire.Request{Ops: []wire.Op{{Kind: wire.KindGet, Table: "t", Key: []byte("after")}}})
	if err != nil || string(resp.Value) != "after" {
		t.Fatalf("call after the refusal: %q, %v", resp.Value, err)
	}
	c.fail(ErrClosed)
}

// echoKeys is a stub peer: it answers each request frame on nc with a
// VALUE holding the request's first key, gathering up to burst frames
// into one write (0: one write per frame), until the connection closes.
func echoKeys(nc net.Conn, burst int) {
	br := bufio.NewReader(nc)
	var out []byte
	var req wire.Request
	for n := 0; ; {
		payload, err := wire.ReadFrame(br, wire.MaxFrame)
		if err != nil {
			return
		}
		if err := wire.DecodeRequestInto(payload, &req, nil); err != nil {
			return
		}
		out, _ = wire.AppendResponse(out, &wire.Response{Kind: wire.KindValue, Value: req.Ops[0].Key})
		if n++; n < burst {
			continue
		}
		if _, err := nc.Write(out); err != nil {
			return
		}
		out, n = out[:0], 0
	}
}

// TestBurstCompletesInOrder: a peer that answers k pipelined requests
// with one write hands the reader a burst of k complete responses, which
// it completes under one lock; each caller gets the response to its own
// request, which only a ring kept in request order gives.
func TestBurstCompletesInOrder(t *testing.T) {
	const k = 16
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		echoKeys(nc, k)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(nc, wire.MaxFrame)
	defer c.fail(ErrClosed)
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				key := fmt.Sprintf("r%d-c%d", round, i)
				resp, err := c.roundTrip(&wire.Request{Ops: []wire.Op{{Kind: wire.KindGet, Table: "t", Key: []byte(key)}}})
				if err != nil || string(resp.Value) != key {
					t.Errorf("caller %s got %q, %v", key, resp.Value, err)
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

// TestReaderNeverBlocksInWrite: 64 callers pipeline 1 MiB PUTs, each
// answered by a 1 MiB value, and small GETs, over socket buffers far
// smaller than one frame, to a peer that reads a frame and then writes
// its answer. Bursts of small answers make the reader take the
// flusher's role, and the callers it wakes follow up with 1 MiB frames. A
// reader that wrote those itself would block while the peer blocks on
// writing to it, and neither would read again; under the reader's bound
// the callers write them, and the pipeline completes.
func TestReaderNeverBlocksInWrite(t *testing.T) {
	const (
		window = 64
		rounds = 3
		big    = 1 << 20
		sock   = 16 << 10
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		tc := nc.(*net.TCPConn)
		tc.SetReadBuffer(sock)
		tc.SetWriteBuffer(sock)
		br := bufio.NewReader(nc)
		value := make([]byte, big)
		var req wire.Request
		var out []byte
		for {
			payload, err := wire.ReadFrame(br, wire.MaxFrame)
			if err != nil {
				return
			}
			if err := wire.DecodeRequestInto(payload, &req, nil); err != nil {
				return
			}
			v := value
			if req.Ops[0].Kind == wire.KindGet {
				v = req.Ops[0].Key
			}
			out, _ = wire.AppendResponse(out[:0], &wire.Response{Kind: wire.KindValue, Value: v})
			if _, err := nc.Write(out); err != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tc := nc.(*net.TCPConn)
	tc.SetReadBuffer(sock)
	tc.SetWriteBuffer(sock)
	c := newConn(nc, wire.MaxFrame)
	defer c.fail(ErrClosed)
	if c.sendMax == 0 || c.sendMax >= big {
		t.Fatalf("reader's write bound %d; want one below a frame", c.sendMax)
	}

	done := make(chan struct{})
	errs := make(chan error, window)
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < window; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				put := wire.Request{Ops: []wire.Op{{Kind: wire.KindPut, Table: "t", Key: []byte{byte(g)}, Value: make([]byte, big)}}}
				get := wire.Request{Ops: []wire.Op{{Kind: wire.KindGet, Table: "t", Key: []byte{byte(g), 1}}}}
				for r := 0; r < rounds; r++ {
					resp, err := c.roundTrip(&put)
					if err == nil && len(resp.Value) != big {
						err = fmt.Errorf("PUT answered with %d bytes", len(resp.Value))
					}
					if err == nil {
						resp, err = c.roundTrip(&get)
					}
					if err == nil && !bytes.Equal(resp.Value, get.Ops[0].Key) {
						err = fmt.Errorf("GET answered with %d bytes", len(resp.Value))
					}
					if err != nil {
						errs <- fmt.Errorf("caller %d round %d: %v", g, r, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("pipeline of 1 MiB frames stalled: a writer blocked against a peer that could not read")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFailWakesEachWaiterOnce: a peer answers half of the queued requests
// in one write and hangs up. The reader completes the answered half, fail
// the rest, and no waiter is signalled twice: the answered callers get
// their own values, the others the connection's error, and every waiter
// goes back to the pool drained.
func TestFailWakesEachWaiterOnce(t *testing.T) {
	const callers = 32
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(nc)
		var out []byte
		var req wire.Request
		for n := 0; n < callers; n++ {
			payload, err := wire.ReadFrame(br, wire.MaxFrame)
			if err != nil {
				break
			}
			if n < callers/2 && wire.DecodeRequestInto(payload, &req, nil) == nil {
				out, _ = wire.AppendResponse(out, &wire.Response{Kind: wire.KindValue, Value: req.Ops[0].Key})
			}
		}
		nc.Write(out)
		nc.Close()
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(nc, wire.MaxFrame)
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("k%02d", i))
			resp, err := c.roundTrip(&wire.Request{Ops: []wire.Op{{Kind: wire.KindGet, Table: "t", Key: key}}})
			switch {
			case err != nil:
				failed.Add(1)
			case !bytes.Equal(resp.Value, key):
				t.Errorf("caller %s got %q", key, resp.Value)
			default:
				ok.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if ok.Load() != callers/2 || failed.Load() != callers/2 {
		t.Errorf("%d calls answered and %d failed; want %d each", ok.Load(), failed.Load(), callers/2)
	}
	if n := c.queued(); n != 0 {
		t.Errorf("%d waiters still queued after the failure", n)
	}
	for i := 0; i < 4*callers; i++ {
		w := waiterPool.Get().(*waiter)
		if len(w.done) != 0 || w.err != nil || w.resp.Kind != 0 {
			t.Fatalf("pooled waiter holds a result: signal=%d err=%v resp=%v", len(w.done), w.err, w.resp.Kind)
		}
	}
}
