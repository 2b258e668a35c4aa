package server

import (
	"bufio"
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"silo"
	"silo/internal/race"
	"silo/internal/trace"
	"silo/wire"
)

// recycle_test.go is the safety net under the zero-allocation hot path:
// every buffer on it — frame payloads, decode scratch, exec arenas,
// encoded response buffers — is recycled, and the only acceptable
// evidence of a lifetime bug is a byte-level diff, not a flake. The e2e
// test drives pipelined mixed traffic through a recycling server and
// through a noReuse server (every request on fresh memory) and demands
// identical response byte streams; under -race the pools additionally
// poison recycled buffers, so a stage holding a view past its release
// produces frames of 0xDB rather than plausibly stale bytes.

// startRecycleServer serves a durable single-worker group-ack database:
// one worker makes each connection's pipelined responses deterministic
// (per-connection FIFO execution), group acks exercise the writer's
// durability wait on stamped pooled buffers.
func startRecycleServer(t *testing.T, noReuse bool) (addr string, stop func()) {
	t.Helper()
	db, err := silo.Open(silo.Options{
		Workers:       1,
		EpochInterval: 2 * time.Millisecond,
		Durability:    &silo.DurabilityOptions{Dir: t.TempDir(), Loggers: 2, Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("bench")
	srv := New(db, Options{Acks: AckGroup, noReuse: noReuse})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), func() {
		srv.Close()
		db.Close()
	}
}

// recycleScript builds connection c's deterministic frame sequence: two
// CREATE_INDEX frames (identical on every connection, so idempotent),
// then rounds of TXN-insert, GET, PUT, ADD, SCAN, three ISCANs, a mixed
// TXN, a mixed TRACE, and a run of one-op GETs and ADDs (chains the
// server prefetches), all within the connection's own key prefix so
// concurrent connections never interact. The scans are the frames a worker builds
// in place in a response buffer and hands to the writer as is; between
// them the ISCANs cover the covering visitor and both batched emission
// orders (bench_by_tag's secondary order scrambles primary order, so its
// pages are staged; bench_by_key's parallels it, so they stream). A
// TRACER's span block is timings; runRecycleTraffic masks it, and the rest
// of the frame — results built in the exec state's arena, encoded into a
// pooled buffer, held and patched by the writer — is compared like
// any other. Excludes STATS/SCHEMA.
func recycleScript(c int) [][]byte {
	prefix := byte('A' + c)
	key := func(i int) []byte { return []byte{prefix, byte(i >> 8), byte(i)} }
	val := func(i int) []byte {
		v := make([]byte, 16) // first 8 bytes: ADD counter, starts at 0
		for j := 8; j < 16; j++ {
			v[j] = byte(i + j + c)
		}
		return v
	}
	var frames [][]byte
	add := func(req *wire.Request) {
		f, err := wire.AppendRequest(nil, req)
		if err != nil {
			panic(err)
		}
		frames = append(frames, f)
	}
	add(&wire.Request{Ops: []wire.Op{{Kind: wire.KindCreateIndex, Table: "bench", Index: "bench_by_tag",
		Segs: []wire.IndexSeg{{Off: 0, Len: 1}, {FromValue: true, Off: 8, Len: 2}}}}})
	add(&wire.Request{Ops: []wire.Op{{Kind: wire.KindCreateIndex, Table: "bench", Index: "bench_by_key",
		Segs: []wire.IndexSeg{{Off: 0, Len: 3}},
		Incs: []wire.IndexSeg{{FromValue: true, Off: 0, Len: 8}}}}})
	iscan := func(index string, limit uint32, covering bool) {
		add(&wire.Request{Ops: []wire.Op{{Kind: wire.KindIScan, Index: index,
			Key: []byte{prefix}, HasHi: true, Hi: []byte{prefix + 1}, Limit: limit, Covering: covering}}})
	}
	const rounds = 40
	for i := 0; i < rounds; i++ {
		k0, k1, k2 := key(3*i), key(3*i+1), key(3*i+2)
		add(&wire.Request{Txn: true, Ops: []wire.Op{
			{Kind: wire.KindInsert, Table: "bench", Key: k0, Value: val(3 * i)},
			{Kind: wire.KindInsert, Table: "bench", Key: k1, Value: val(3*i + 1)},
			{Kind: wire.KindInsert, Table: "bench", Key: k2, Value: val(3*i + 2)},
		}})
		add(&wire.Request{Ops: []wire.Op{
			{Kind: wire.KindGet, Table: "bench", Key: k1},
		}})
		add(&wire.Request{Ops: []wire.Op{
			{Kind: wire.KindPut, Table: "bench", Key: k2, Value: val(1000 + i)},
		}})
		add(&wire.Request{Ops: []wire.Op{
			{Kind: wire.KindAdd, Table: "bench", Key: k0, Delta: int64(i + 1)},
		}})
		add(&wire.Request{Ops: []wire.Op{
			{Kind: wire.KindScan, Table: "bench", Key: []byte{prefix}, HasHi: true, Hi: []byte{prefix + 1}, Limit: 8},
		}})
		iscan("bench_by_tag", 0, false)
		iscan("bench_by_key", 8, true)
		iscan("bench_by_key", 200, false)
		add(&wire.Request{Txn: true, Ops: []wire.Op{
			{Kind: wire.KindGet, Table: "bench", Key: k0},
			{Kind: wire.KindAdd, Table: "bench", Key: k1, Delta: 7},
			{Kind: wire.KindPut, Table: "bench", Key: k0, Value: val(2000 + i)},
		}})
		add(&wire.Request{Trace: true, Ops: []wire.Op{
			{Kind: wire.KindAdd, Table: "bench", Key: k2, Delta: -3},
			{Kind: wire.KindGet, Table: "bench", Key: k1},
			{Kind: wire.KindGet, Table: "bench", Key: k0},
		}})
		// A run of one-op GET and ADD frames, one of them of a key never
		// inserted: the chains the server prefetches before running them.
		for _, op := range []wire.Op{
			{Kind: wire.KindGet, Table: "bench", Key: k2},
			{Kind: wire.KindAdd, Table: "bench", Key: k0, Delta: 5},
			{Kind: wire.KindGet, Table: "bench", Key: key(3*rounds + i)},
			{Kind: wire.KindAdd, Table: "bench", Key: k1, Delta: -1},
			{Kind: wire.KindGet, Table: "bench", Key: k0},
		} {
			add(&wire.Request{Ops: []wire.Op{op}})
		}
	}
	return frames
}

// runRecycleTraffic replays the scripted traffic over conns concurrent
// raw TCP connections, each fully pipelined (all requests written before
// all responses are read), and returns each connection's concatenated
// response payload bytes, TRACER span blocks zeroed.
func runRecycleTraffic(t *testing.T, addr string, conns int) [][]byte {
	t.Helper()
	out := make([][]byte, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			frames := recycleScript(c)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			go func() {
				for _, f := range frames {
					if _, err := conn.Write(f); err != nil {
						return
					}
				}
			}()
			br := bufio.NewReader(conn)
			var got []byte
			for i := range frames {
				p, err := wire.ReadFrameInto(br, 0, nil)
				if err != nil {
					t.Errorf("conn %d response %d: %v", c, i, err)
					return
				}
				if wire.Kind(p[0]) == wire.KindTraceR {
					clear(p[1 : 1+trace.SpansEncodedLen])
				}
				got = append(got, p...)
			}
			out[c] = got
		}(c)
	}
	wg.Wait()
	return out
}

// TestRecyclingByteExact compares a recycling server's response bytes
// against the noReuse golden build under identical pipelined mixed
// traffic. Any pooled buffer released early, double-recycled, or aliased
// across requests diverges the streams (and under -race serves poison).
func TestRecyclingByteExact(t *testing.T) {
	const conns = 4

	goldenAddr, stopGolden := startRecycleServer(t, true)
	golden := runRecycleTraffic(t, goldenAddr, conns)
	stopGolden()

	addr, stop := startRecycleServer(t, false)
	defer stop()
	got := runRecycleTraffic(t, addr, conns)

	for c := 0; c < conns; c++ {
		if golden[c] == nil || got[c] == nil {
			t.Fatalf("conn %d: traffic did not complete", c)
		}
		if !bytes.Equal(golden[c], got[c]) {
			i := 0
			for i < len(golden[c]) && i < len(got[c]) && golden[c][i] == got[c][i] {
				i++
			}
			t.Errorf("conn %d: recycled responses diverge from golden at byte %d (golden %d bytes, got %d)",
				c, i, len(golden[c]), len(got[c]))
		}
	}
}

// TestPoolDropsOversizedBuffers pins the retention cap: a buffer that
// grew past maxPooled must not be pinned in the pool (and the job's
// decode scratch, which aliases the dropped payload, must be released
// with it).
func TestPoolDropsOversizedBuffers(t *testing.T) {
	s := &Server{}

	rb := &respBuf{b: make([]byte, maxPooled+1)}
	s.putBuf(rb)
	if rb.b != nil {
		t.Errorf("putBuf kept a %d-byte buffer past the %d cap", maxPooled+1, maxPooled)
	}

	c := s.getChain()
	c.n = 1
	j := &c.jobs[0]
	j.payload = make([]byte, maxPooled+1)
	j.rb = &respBuf{} // a recycled chain must not keep its old responses
	var req wire.Request
	frame, err := wire.AppendRequest(nil, &wire.Request{Ops: []wire.Op{
		{Kind: wire.KindGet, Table: "bench", Key: []byte("k")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.DecodeRequestInto(frame[4:], &req, &j.scratch); err != nil {
		t.Fatal(err)
	}
	s.putChain(c)
	if j.payload != nil {
		t.Errorf("putChain kept a %d-byte payload past the %d cap", maxPooled+1, maxPooled)
	}
	if j.rb != nil || c.n != 0 {
		t.Error("putChain kept the chain's responses")
	}
	if !reflect.DeepEqual(j.scratch, wire.DecodeScratch{}) {
		t.Error("putChain dropped the payload but kept the scratch aliasing it")
	}
}

// TestRecycledBuffersPoisoned pins the race-build poisoning contract:
// returning a buffer to the pool overwrites its contents, so any stage
// still holding a view reads 0xDB bytes. Plain builds skip (poisoning
// costs a memset per recycle and is a debugging aid, not a semantic).
func TestRecycledBuffersPoisoned(t *testing.T) {
	if !race.Enabled {
		t.Skip("recycled-buffer poisoning is compiled in under -race only")
	}
	s := &Server{}

	rb := &respBuf{b: []byte("response bytes the writer flushed")}
	view := rb.b
	s.putBuf(rb)
	for i, b := range view {
		if b != poisonByte {
			t.Fatalf("putBuf left byte %d = %#x, want %#x poison", i, b, poisonByte)
		}
	}

	c := s.getChain()
	c.n = 1
	c.jobs[0].payload = []byte("frame payload the request aliased")
	pview := c.jobs[0].payload
	s.putChain(c)
	for i, b := range pview {
		if b != poisonByte {
			t.Fatalf("putChain left payload byte %d = %#x, want %#x poison", i, b, poisonByte)
		}
	}
}
