package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"silo"
	"silo/wire"
)

// chain_test.go covers the edges of burst runs: a reader runs every
// request already buffered as one chain (server/conn.go), so what matters
// is what happens where a burst is cut — by a bad frame, by a Pipeline
// smaller than the burst, by a chain handed to a helper, by Close.

// chainRows is the size of the test table: row i has the two-byte
// big-endian key i and 100 bytes of byte(i).
const chainRows = 1000

func chainKey(i int) []byte { return []byte{byte(i >> 8), byte(i)} }

// startChainServer serves a fresh in-memory database holding the test
// table "t", and returns one raw connection to it.
func startChainServer(t *testing.T, workers int, opts Options) (*Server, net.Conn) {
	t.Helper()
	db, err := silo.Open(silo.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	if err := db.Run(0, func(tx *silo.Tx) error {
		for i := 0; i < chainRows; i++ {
			if err := tx.Insert(tbl, chainKey(i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := New(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(20 * time.Second))
	t.Cleanup(func() {
		nc.Close()
		s.Close()
		db.Close()
	})
	return s, nc
}

func getFrame(t *testing.T, dst []byte, i int) []byte {
	t.Helper()
	dst, err := wire.AppendRequest(dst, &wire.Request{Ops: []wire.Op{{Kind: wire.KindGet, Table: "t", Key: chainKey(i)}}})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func readResponse(t *testing.T, r io.Reader, what string, i int) wire.Response {
	t.Helper()
	payload, err := wire.ReadFrame(r, 0)
	if err != nil {
		t.Fatalf("%s %d: %v", what, i, err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatalf("%s %d: %v", what, i, err)
	}
	return resp
}

// wantRow checks that resp is the GET response for row i: only response
// order pairs it with its request.
func wantRow(t *testing.T, resp wire.Response, i int) {
	t.Helper()
	if resp.Kind != wire.KindValue || len(resp.Value) != 100 || resp.Value[0] != byte(i) {
		t.Fatalf("response %d = %v %x; want row %d", i, resp.Kind, resp.Value, i)
	}
}

// TestMalformedFrameMidBurst: a bad frame in the middle of one buffered
// burst cuts the chain there. The requests ahead of it are answered, in
// order; then comes the ERR, then the hang-up; the requests behind it are
// never executed.
func TestMalformedFrameMidBurst(t *testing.T) {
	s, nc := startChainServer(t, 2, Options{})
	var out []byte
	const good = 5
	for i := 0; i < good; i++ {
		out = getFrame(t, out, i)
	}
	out = append(out, 0, 0, 0, 1, 0x7f) // a frame of one unknown kind byte
	for i := 0; i < 3; i++ {
		out = getFrame(t, out, 100+i)
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	for i := 0; i < good; i++ {
		wantRow(t, readResponse(t, br, "response", i), i)
	}
	if resp := readResponse(t, br, "error response", good); resp.Kind != wire.KindErr || resp.Code != wire.CodeProto {
		t.Fatalf("response to the bad frame = %+v, want ERR/proto", resp)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after the protocol error: read err = %v, want EOF", err)
	}
	var snap silo.ObsSnapshot
	s.CollectObs(&snap)
	if n := snap.Value("silo_server_requests_total", ""); n != good {
		t.Errorf("%d requests executed, want the %d ahead of the bad frame", n, good)
	}
}

// TestBurstDeeperThanPipeline: the reader runs a chain before it queues
// it for the writer, and waits for room only before reading the next
// burst, so a per-connection Pipeline smaller than the burst — smaller
// than one chain — throttles the reader without deadlocking it behind
// responses nobody is computing.
func TestBurstDeeperThanPipeline(t *testing.T) {
	for _, depth := range []int{1, 2} {
		_, nc := startChainServer(t, 2, Options{Pipeline: depth})
		const n = 64
		var out []byte
		for i := 0; i < n; i++ {
			out = getFrame(t, out, i)
		}
		if _, err := nc.Write(out); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(nc)
		for i := 0; i < n; i++ {
			wantRow(t, readResponse(t, br, "response", i), i)
		}
	}
}

// TestPipelineDepthCountsRequests: silo_server_pipeline_depth is observed
// once per request, in requests, however the reader cut the burst into
// chains; dispatches count the chains.
func TestPipelineDepthCountsRequests(t *testing.T) {
	s, nc := startChainServer(t, 2, Options{})
	var before silo.ObsSnapshot
	s.CollectObs(&before)
	const n = 3*maxChain + 5
	var out []byte
	for i := 0; i < n; i++ {
		out = getFrame(t, out, i)
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	for i := 0; i < n; i++ {
		wantRow(t, readResponse(t, br, "response", i), i)
	}
	var after silo.ObsSnapshot
	s.CollectObs(&after)
	depth := after.Get("silo_server_pipeline_depth", "").Hist
	if got := depth.Count - before.Get("silo_server_pipeline_depth", "").Hist.Count; got != n {
		t.Errorf("%d pipeline-depth observations for %d requests", got, n)
	}
	if max := depth.Quantile(1); max < 1 || max > uint64(s.opts.Pipeline+maxChain) {
		t.Errorf("deepest observation %d: not a request count within Pipeline + one chain", max)
	}
	chains := after.Value("silo_server_dispatches_total", "") - before.Value("silo_server_dispatches_total", "")
	if chains < n/maxChain || chains >= n {
		t.Errorf("%d dispatches for %d pipelined requests, want one per chain of up to %d", chains, n, maxChain)
	}
}

// TestOneConnectionUsesEveryWorker: a chain of long requests from a
// single deeply pipelined connection is passed on to free worker contexts
// rather than serialized on the one its reader took.
func TestOneConnectionUsesEveryWorker(t *testing.T) {
	// One full chain of whole-table scans: unshared it would run on the
	// one worker that received it.
	const workers, n = 4, maxChain
	s, nc := startChainServer(t, workers, Options{})
	var out []byte
	for i := 0; i < n; i++ {
		var err error
		out, err = wire.AppendRequest(out, &wire.Request{Ops: []wire.Op{{Kind: wire.KindScan, Table: "t", Key: []byte{0}, Limit: chainRows}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(nc)
	scans := func() (n [workers]uint64) {
		for w, o := range s.wobs {
			n[w] = o.latency[latIdx(wire.KindScan)].Snapshot().Count
		}
		return n
	}
	// Every worker must take part in one and the same burst. One round
	// normally does it; the loop only absorbs a scheduler that had not yet
	// parked every worker when the burst arrived.
	var before, after [workers]uint64
	for round := 0; round < 20; round++ {
		before = scans()
		if _, err := nc.Write(out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if resp := readResponse(t, br, "scan response", i); resp.Kind != wire.KindScanR || len(resp.Pairs) != chainRows {
				t.Fatalf("scan response %d = %v with %d pairs", i, resp.Kind, len(resp.Pairs))
			}
		}
		after = scans()
		busy := 0
		for w := range after {
			if after[w] > before[w] {
				busy++
			}
		}
		if busy == workers {
			return
		}
	}
	t.Logf("scans per worker in the last burst: before %v, after %v", before, after)
	t.Fatalf("%d pipelined scans on one connection did not reach all %d workers", n, workers)
}

// TestCloseMidBurst: Close while connections are mid-burst — chains
// queued, running and half answered — returns, every response that does
// arrive is the right one in the right order, and every job of every
// chain ends up recycled (under -race the pools poison recycled payloads,
// so a job run after its release would answer with the wrong row).
func TestCloseMidBurst(t *testing.T) {
	s, first := startChainServer(t, 2, Options{Pipeline: 4})
	addr := first.RemoteAddr().String() // s.Addr() is empty until Serve has registered the listener
	const conns, n = 8, 256
	done := make(chan int, conns)
	answered := make(chan struct{})
	var once sync.Once
	for c := 0; c < conns; c++ {
		nc := first
		if c > 0 {
			var err error
			if nc, err = net.Dial("tcp", addr); err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(20 * time.Second))
		}
		var out []byte
		for i := 0; i < n; i++ {
			out = getFrame(t, out, i)
		}
		go nc.Write(out)
		go func() {
			br := bufio.NewReader(nc)
			for i := 0; i < n; i++ {
				payload, err := wire.ReadFrame(br, 0)
				if err != nil {
					done <- i
					return
				}
				resp, err := wire.DecodeResponse(payload)
				if err != nil || resp.Kind != wire.KindValue || len(resp.Value) != 100 || resp.Value[0] != byte(i) {
					t.Errorf("response %d before close = %v %x, %v", i, resp.Kind, resp.Value, err)
					done <- i
					return
				}
				once.Do(func() { close(answered) })
			}
			done <- n
		}()
	}
	select {
	case <-answered:
	case <-time.After(20 * time.Second):
		t.Fatal("no response arrived before Close")
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(20 * time.Second):
		t.Fatal("Close did not return with bursts in flight")
	}
	for c := 0; c < conns; c++ {
		<-done
	}
}
