package client_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"silo"
	"silo/client"
	"silo/server"
	"silo/wire"
)

// serve starts an in-process server over a fresh in-memory database and
// returns its address.
func serve(t *testing.T, opts server.Options) string {
	t.Helper()
	db, err := silo.Open(silo.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return ln.Addr().String()
}

func dial(t *testing.T, addr string, opts client.Options) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func be64(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

// TestPipelinedResponsesMatchRequests: one connection, several
// goroutines, 64 requests in flight. Responses carry no request id — only
// their order on the wire pairs them with callers — so every caller reads
// keys only it wrote and checks it got its own values back.
func TestPipelinedResponsesMatchRequests(t *testing.T) {
	cl := dial(t, serve(t, server.Options{}), client.Options{Conns: 1})
	const callers, window, rounds = 8, 8, 40 // 8 × 8 = 64 in flight
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		for s := 0; s < window; s++ {
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				key := be64(id)
				if err := cl.Insert("t", key, be64(0)); err != nil {
					t.Errorf("caller %d: insert: %v", id, err)
					return
				}
				for i := uint64(1); i <= rounds; i++ {
					n, err := cl.Add("t", key, 1)
					if err != nil || n != i {
						t.Errorf("caller %d round %d: Add = %d, %v (someone else's response?)", id, i, n, err)
						return
					}
					v, err := cl.Get("t", key)
					if err != nil || !bytes.Equal(v, be64(i)) {
						t.Errorf("caller %d round %d: Get = %x, %v", id, i, v, err)
						return
					}
					res, err := cl.Txn().Get("t", key).Put("t", key, be64(i)).Exec()
					if err != nil || len(res) != 2 || !bytes.Equal(res[0].Value, be64(i)) {
						t.Errorf("caller %d round %d: Txn = %+v, %v", id, i, res, err)
						return
					}
				}
			}(uint64(g*window + s))
		}
	}
	wg.Wait()
}

// loadScanTable inserts n 100-byte rows keyed by their big-endian number,
// first 8 value bytes the same number, and indexes them on those bytes.
func loadScanTable(t *testing.T, cl *client.Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		row := make([]byte, 100)
		binary.BigEndian.PutUint64(row, uint64(i))
		row[99] = byte(i)
		if err := cl.Insert("rows", be64(uint64(i)), row); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.CreateIndex("rows_by_n", "rows", false,
		[]wire.IndexSeg{{FromValue: true, Off: 0, Len: 8}},
		wire.IndexSeg{FromValue: true, Off: 98, Len: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestScanPagesDecodeToRowsServed: Scan, IndexScan and IndexScanCovering
// pages hold the rows the server has, whole and in order.
func TestScanPagesDecodeToRowsServed(t *testing.T) {
	cl := dial(t, serve(t, server.Options{}), client.Options{})
	loadScanTable(t, cl, 150)

	pairs, err := cl.Scan("rows", be64(10), be64(130), 100)
	if err != nil || len(pairs) != 100 {
		t.Fatalf("Scan: %d pairs, %v", len(pairs), err)
	}
	for i, p := range pairs {
		n := uint64(10 + i)
		if !bytes.Equal(p.Key, be64(n)) || len(p.Value) != 100 || !bytes.Equal(p.Value[:8], be64(n)) || p.Value[99] != byte(n) {
			t.Fatalf("Scan pair %d: %x = %x", i, p.Key, p.Value)
		}
	}

	entries, err := cl.IndexScan("rows_by_n", be64(10), nil, 100, false)
	if err != nil || len(entries) != 100 {
		t.Fatalf("IndexScan: %d entries, %v", len(entries), err)
	}
	for i, e := range entries {
		n := uint64(10 + i)
		if !bytes.Equal(e.SK, be64(n)) || !bytes.Equal(e.PK, be64(n)) || len(e.Value) != 100 || e.Value[99] != byte(n) {
			t.Fatalf("IndexScan entry %d: %x/%x = %x", i, e.SK, e.PK, e.Value)
		}
	}

	entries, err = cl.IndexScanCovering("rows_by_n", be64(140), nil, 0, false)
	if err != nil || len(entries) != 10 {
		t.Fatalf("IndexScanCovering: %d entries, %v", len(entries), err)
	}
	for i, e := range entries {
		n := uint64(140 + i)
		if !bytes.Equal(e.PK, be64(n)) || !bytes.Equal(e.Value, []byte{0, byte(n)}) {
			t.Fatalf("IndexScanCovering entry %d: %x = %x", i, e.PK, e.Value)
		}
	}
}

// TestOversizedScanLeavesConnectionUsable: a page larger than the frame
// cap both sides share comes back as ErrInvalid — the server refuses to
// build it — rather than as a frame the client's reader rejects, which
// used to fail this connection and every request pipelined on it.
func TestOversizedScanLeavesConnectionUsable(t *testing.T) {
	const maxFrame = 4096
	cl := dial(t, serve(t, server.Options{MaxFrame: maxFrame}), client.Options{Conns: 1, MaxFrame: maxFrame})
	loadScanTable(t, cl, 100)

	// Requests pipelined behind the oversized ones must all be answered.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := cl.Get("rows", be64(uint64(g*10+i%10))); err != nil {
					t.Errorf("Get pipelined beside an oversized scan: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.Scan("rows", nil, nil, 0); !errors.Is(err, client.ErrInvalid) {
			t.Fatalf("Scan of ~11 KB under a %d-byte cap: %v, want ErrInvalid", maxFrame, err)
		}
		if _, err := cl.IndexScan("rows_by_n", nil, nil, 0, false); !errors.Is(err, client.ErrInvalid) {
			t.Fatalf("IndexScan of ~12 KB under a %d-byte cap: %v, want ErrInvalid", maxFrame, err)
		}
	}
	wg.Wait()
	if page, err := cl.IndexScan("rows_by_n", nil, nil, 20, false); err != nil || len(page) != 20 {
		t.Fatalf("a page that fits, on the same connection: %d entries, %v", len(page), err)
	}
}

// TestServerDeathWakesEveryWaiter: a peer that accepts requests, answers
// none and then dies must not strand callers — each gets the connection's
// error, and so does every later call.
func TestServerDeathWakesEveryWaiter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const waiters = 32
	got := make(chan int, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// Swallow every request frame, then die mid-pipeline.
		for n := 0; n < waiters; n++ {
			if _, err := wire.ReadFrame(c, 0); err != nil {
				got <- n
				return
			}
		}
		got <- waiters
	}()

	cl := dial(t, ln.Addr().String(), client.Options{Conns: 1})
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			_, err := cl.Get("t", []byte(fmt.Sprint(i)))
			errs <- err
		}(i)
	}
	if n := <-got; n != waiters {
		t.Fatalf("peer read %d of %d requests", n, waiters)
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a call on a dead connection returned success")
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d waiters never woke after the server died", waiters-i, waiters)
		}
	}
	if _, err := cl.Get("t", []byte("late")); err == nil {
		t.Fatal("a call after the connection failed returned success")
	}
}
