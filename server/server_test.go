package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"silo"
	"silo/client"
	"silo/server"
	"silo/wire"
)

// startServer spins up a database and server on a loopback listener and
// returns a connected client; everything is torn down with the test.
func startServer(t *testing.T, dbOpts silo.Options, srvOpts server.Options, clOpts client.Options) (*silo.DB, *server.Server, *client.Client) {
	t.Helper()
	if dbOpts.Workers == 0 {
		dbOpts.Workers = 2
	}
	db, err := silo.Open(dbOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, srvOpts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	cl, err := client.Dial(ln.Addr().String(), clOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		db.Close()
	})
	return db, srv, cl
}

func be64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func TestOpsOverTheWire(t *testing.T) {
	_, _, cl := startServer(t, silo.Options{}, server.Options{}, client.Options{})

	// Insert + Get.
	if err := cl.Insert("t", []byte("k1"), []byte("v1")); err != nil {
		t.Fatalf("insert: %v", err)
	}
	v, err := cl.Get("t", []byte("k1"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("get = %q, %v; want v1", v, err)
	}

	// Error mapping.
	if _, err := cl.Get("t", []byte("missing")); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("get missing: %v, want ErrNotFound", err)
	}
	if err := cl.Insert("t", []byte("k1"), []byte("dup")); !errors.Is(err, client.ErrKeyExists) {
		t.Errorf("dup insert: %v, want ErrKeyExists", err)
	}
	if err := cl.Put("t", []byte("missing"), []byte("x")); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("put missing: %v, want ErrNotFound", err)
	}
	if err := cl.Delete("t", []byte("missing")); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("delete missing: %v, want ErrNotFound", err)
	}
	if _, err := cl.Add("t", []byte("k1"), 1); !errors.Is(err, client.ErrBadValue) {
		t.Errorf("add on 2-byte value: %v, want ErrBadValue", err)
	}
	if _, err := cl.Get("t", nil); !errors.Is(err, client.ErrInvalid) {
		t.Errorf("get empty key: %v, want ErrInvalid", err)
	}

	// Put + Delete round trip.
	if err := cl.Put("t", []byte("k1"), []byte("v2")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if v, _ := cl.Get("t", []byte("k1")); string(v) != "v2" {
		t.Fatalf("get after put = %q", v)
	}
	if err := cl.Delete("t", []byte("k1")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := cl.Get("t", []byte("k1")); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}

	// Add is a serializable counter.
	if err := cl.Insert("t", []byte("ctr"), be64(10)); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.Add("t", []byte("ctr"), -3); err != nil || n != 7 {
		t.Fatalf("add = %d, %v; want 7", n, err)
	}
	if v, _ := cl.Get("t", []byte("ctr")); binary.BigEndian.Uint64(v) != 7 {
		t.Fatalf("counter = %x", v)
	}
}

func TestScanOverTheWire(t *testing.T) {
	_, _, cl := startServer(t, silo.Options{}, server.Options{}, client.Options{})
	for i := 0; i < 10; i++ {
		if err := cl.Insert("s", []byte{byte('a' + i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Full scan.
	pairs, err := cl.Scan("s", nil, nil, 0)
	if err != nil || len(pairs) != 10 {
		t.Fatalf("full scan: %d pairs, %v", len(pairs), err)
	}
	for i, p := range pairs {
		if p.Key[0] != byte('a'+i) || p.Value[0] != byte(i) {
			t.Fatalf("pair %d = %q/%x", i, p.Key, p.Value)
		}
	}
	// Bounded scan [c, f).
	pairs, err = cl.Scan("s", []byte("c"), []byte("f"), 0)
	if err != nil || len(pairs) != 3 || pairs[0].Key[0] != 'c' {
		t.Fatalf("bounded scan: %+v, %v", pairs, err)
	}
	// Limited scan.
	pairs, err = cl.Scan("s", nil, nil, 4)
	if err != nil || len(pairs) != 4 {
		t.Fatalf("limited scan: %d pairs, %v", len(pairs), err)
	}
	// Server-side cap.
	_, srv, cl2 := startServer(t, silo.Options{}, server.Options{MaxScan: 2}, client.Options{})
	_ = srv
	for i := 0; i < 5; i++ {
		if err := cl2.Insert("s", []byte{byte('a' + i)}, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// A limit beyond the cap is rejected (see TestScanLimitOverCapRejected);
	// omitting the limit scans up to the cap.
	if _, err := cl2.Scan("s", nil, nil, 100); !errors.Is(err, client.ErrInvalid) {
		t.Fatalf("over-cap scan: %v, want ErrInvalid", err)
	}
	pairs, err = cl2.Scan("s", nil, nil, 0)
	if err != nil || len(pairs) != 2 {
		t.Fatalf("capped scan: %d pairs, %v", len(pairs), err)
	}
}

func TestTxnFrame(t *testing.T) {
	_, _, cl := startServer(t, silo.Options{}, server.Options{}, client.Options{})
	if err := cl.Insert("a", []byte("x"), be64(100)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert("a", []byte("y"), be64(200)); err != nil {
		t.Fatal(err)
	}

	// Multi-op transaction touching two tables, with positional results.
	res, err := cl.Txn().
		Add("a", []byte("x"), -10).
		Add("a", []byte("y"), 10).
		Get("a", []byte("x")).
		Insert("b", []byte("log"), []byte("transferred")).
		Exec()
	if err != nil {
		t.Fatalf("txn: %v", err)
	}
	if len(res) != 4 {
		t.Fatalf("txn results: %d", len(res))
	}
	if !res[0].HasValue || binary.BigEndian.Uint64(res[0].Value) != 90 {
		t.Errorf("add result = %+v", res[0])
	}
	if !res[2].HasValue || binary.BigEndian.Uint64(res[2].Value) != 90 {
		t.Errorf("get result = %+v", res[2])
	}
	if res[3].HasValue {
		t.Errorf("insert result carries a value")
	}

	// A failing op aborts the whole transaction: the insert before the
	// bad get must not survive.
	_, err = cl.Txn().
		Insert("b", []byte("orphan"), []byte("nope")).
		Get("a", []byte("missing")).
		Exec()
	if !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("aborting txn: %v, want ErrNotFound", err)
	}
	if _, err := cl.Get("b", []byte("orphan")); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("aborted txn leaked a write: %v", err)
	}

	// Empty txn is a no-op client-side.
	if res, err := cl.Txn().Exec(); err != nil || res != nil {
		t.Errorf("empty txn = %+v, %v", res, err)
	}
}

func TestNoAutoCreate(t *testing.T) {
	db, _, cl := startServer(t, silo.Options{},
		server.Options{DisableAutoCreate: true}, client.Options{})
	db.CreateTable("known")

	if err := cl.Insert("known", []byte("k"), []byte("v")); err != nil {
		t.Fatalf("insert into precreated table: %v", err)
	}
	if _, err := cl.Get("unknown", []byte("k")); !errors.Is(err, client.ErrNoTable) {
		t.Errorf("get from unknown table: %v, want ErrNoTable", err)
	}
	if _, err := cl.Txn().Get("unknown", []byte("k")).Exec(); !errors.Is(err, client.ErrNoTable) {
		t.Errorf("txn on unknown table: %v, want ErrNoTable", err)
	}
	if db.Table("unknown") != nil {
		t.Error("server created a table despite DisableAutoCreate")
	}
}

// TestMalformedFrame speaks raw bytes: a garbage frame must produce one
// ERR/proto response followed by connection close — never a panic.
func TestMalformedFrame(t *testing.T) {
	db, err := silo.Open(silo.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Options{})
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
	nc.SetDeadline(time.Now().Add(5 * time.Second))

	// Frame of one unknown kind byte.
	if _, err := nc.Write([]byte{0, 0, 0, 1, 0x7f}); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(nc, 0)
	if err != nil {
		t.Fatalf("reading error response: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatalf("decoding error response: %v", err)
	}
	if resp.Kind != wire.KindErr || resp.Code != wire.CodeProto {
		t.Fatalf("response = %+v, want ERR/proto", resp)
	}
	// The server hangs up after a protocol error.
	if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after protocol error: read err = %v, want EOF", err)
	}

	// An oversized length prefix is rejected outright (connection drops
	// without a response — framing is unrecoverable).
	nc2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	nc2.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc2.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	buf, err := io.ReadAll(nc2)
	if err != nil || len(buf) != 0 {
		t.Fatalf("oversized frame: read %x, %v; want clean EOF", buf, err)
	}
}

// TestPipelining issues a burst of raw back-to-back requests on one
// connection and checks responses come back in request order.
func TestPipelining(t *testing.T) {
	db, err := silo.Open(silo.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Options{})
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

	// Pipelined requests may execute out of order across workers (only
	// responses are FIFO), so writes land in one burst and are awaited
	// before the dependent reads go out in a second burst.
	const n = 100
	var out []byte
	for i := 0; i < n; i++ {
		out, err = wire.AppendRequest(out, &wire.Request{Ops: []wire.Op{{
			Kind: wire.KindInsert, Table: "p",
			Key:   []byte{byte(i)},
			Value: bytes.Repeat([]byte{byte(i)}, 3),
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
	out = out[:0]
	for i := 0; i < n; i++ {
		out, err = wire.AppendRequest(out, &wire.Request{Ops: []wire.Op{{
			Kind: wire.KindGet, Table: "p", Key: []byte{byte(i)},
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
			t.Fatalf("get response %d: %v", i, err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil || resp.Kind != wire.KindValue {
			t.Fatalf("get response %d = %+v, %v", i, resp, err)
		}
		if !bytes.Equal(resp.Value, bytes.Repeat([]byte{byte(i)}, 3)) {
			t.Fatalf("get response %d out of order: %x", i, resp.Value)
		}
	}
	var snap silo.ObsSnapshot
	srv.CollectObs(&snap)
	if got := snap.Value("silo_server_requests_total", ""); got != 2*n {
		t.Errorf("requests = %d, want %d", got, 2*n)
	}
}
