package server_test

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"silo"
	"silo/client"
	"silo/server"
)

// TestTraceOverTheWire sends a TRACE frame through a durable group-ack
// server and checks the TRACER response: correct transaction results plus
// a span timeline whose execute phase is non-zero and whose fsync-wait
// covers the group-commit durability point. (The write's epoch closes on
// demand once the connection writer holds the stamped response and waits
// for it, and the fsync that makes it durable starts after that, so the
// writer's wait is never zero.)
func TestTraceOverTheWire(t *testing.T) {
	dir := t.TempDir()
	db, err := silo.Open(silo.Options{
		Workers:       2,
		EpochInterval: 10 * time.Millisecond,
		Durability:    &silo.DurabilityOptions{Dir: dir, Loggers: 1, Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable("acct")
	srv := server.New(db, server.Options{DisableAutoCreate: true, Acks: server.AckGroup})
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

	results, sp, err := cl.Txn().
		Insert("acct", []byte("alice"), be64(100)).
		Get("acct", []byte("alice")).
		Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || !results[1].HasValue || string(results[1].Value) != string(be64(100)) {
		t.Fatalf("trace results = %+v", results)
	}
	if sp == nil {
		t.Fatal("no spans on TRACER response")
	}
	if sp.TID == 0 {
		t.Error("traced commit has zero TID")
	}
	if sp.Exec <= 0 {
		t.Errorf("execute span = %v, want > 0", sp.Exec)
	}
	if sp.Fsync <= 0 {
		t.Errorf("fsync-wait span = %v, want > 0 on a group-ack server", sp.Fsync)
	}
	for _, d := range []time.Duration{sp.Queue, sp.Validate, sp.Log, sp.Respond} {
		if d < 0 {
			t.Errorf("negative span in %v", sp)
		}
	}

	// An empty-keyed op aborts the transaction; the TRACE frame answers
	// with a mapped error, not a TRACER frame.
	if _, _, err := cl.Txn().Get("acct", []byte("missing")).Trace(); err == nil {
		t.Fatal("traced read of a missing key did not error")
	}
}

// TestSlowCaptureAndFlightEndpoints arms slow-op capture with a 1ns
// threshold (everything is slow) and checks both debug endpoints: the
// slow buffer shows captured ops with span timelines, and the flight
// recorder shows commit and connection-lifecycle events, in text and
// JSON.
func TestSlowCaptureAndFlightEndpoints(t *testing.T) {
	_, srv, cl := startServer(t, silo.Options{},
		server.Options{SlowThreshold: time.Nanosecond}, client.Options{})

	for i := 0; i < 8; i++ {
		if err := cl.Insert("t", []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Txn().
		Insert("t", []byte("a"), []byte("1")).
		Get("t", []byte("a")).
		Exec(); err != nil {
		t.Fatal(err)
	}

	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	slow := httpGet(t, admin.URL+"/debug/slow")
	if !strings.Contains(slow, "slow ops:") || !strings.Contains(slow, "table=t") {
		t.Errorf("/debug/slow missing captures:\n%s", slow)
	}
	if !strings.Contains(slow, "TXN") {
		t.Errorf("/debug/slow missing the TXN capture:\n%s", slow)
	}

	var slowDoc struct {
		Captured uint64 `json:"captured"`
		Ops      []struct {
			Kind    string `json:"kind"`
			Table   string `json:"table"`
			TotalNs int64  `json:"total_ns"`
			ExecNs  int64  `json:"exec_ns"`
		} `json:"ops"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, admin.URL+"/debug/slow?format=json")), &slowDoc); err != nil {
		t.Fatalf("/debug/slow?format=json is not JSON: %v", err)
	}
	if slowDoc.Captured < 9 || len(slowDoc.Ops) == 0 {
		t.Errorf("slow JSON captured=%d ops=%d, want >= 9 captures", slowDoc.Captured, len(slowDoc.Ops))
	}
	for _, op := range slowDoc.Ops {
		if op.TotalNs <= 0 {
			t.Errorf("slow op %s has non-positive total", op.Kind)
		}
	}

	flight := httpGet(t, admin.URL+"/debug/flight")
	if !strings.Contains(flight, "flight recorder:") || !strings.Contains(flight, "commit") {
		t.Errorf("/debug/flight missing commit events:\n%s", flight)
	}
	if !strings.Contains(flight, "conn_open") {
		t.Errorf("/debug/flight missing connection lifecycle:\n%s", flight)
	}

	var flightDoc struct {
		Events int `json:"events"`
		Ring   []struct {
			Kind string `json:"kind"`
		} `json:"ring"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, admin.URL+"/debug/flight?format=json")), &flightDoc); err != nil {
		t.Fatalf("/debug/flight?format=json is not JSON: %v", err)
	}
	if flightDoc.Events == 0 || len(flightDoc.Ring) != flightDoc.Events {
		t.Errorf("flight JSON events=%d ring=%d", flightDoc.Events, len(flightDoc.Ring))
	}
}

// TestConcurrentStatsAndFlightDump hammers commits from several client
// goroutines while others dump the flight recorder and scrape STATS, a
// fixed number of rounds each — the seqlock ring reader and the metric
// snapshots must be race-clean against live writers (this is the test the
// -race CI matrix leans on).
func TestConcurrentStatsAndFlightDump(t *testing.T) {
	db, srv, cl := startServer(t, silo.Options{Workers: 4}, server.Options{}, client.Options{Conns: 2})
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	// Seed a small keyset per writer, then update it in a loop (Put is
	// update-only); the shared tail key gives validation something to
	// conflict on, so abort events land in the ring too.
	for g := 0; g < 4; g++ {
		for k := 0; k < 4; k++ {
			if err := cl.Insert("t", []byte{byte(g), byte(k)}, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.Insert("t", []byte("hot"), be64(0)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte{byte(g), byte(i % 4)}
				if err := cl.Put("t", key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, err := cl.Add("t", []byte("hot"), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// The STATS scraper and the flight reader — this goroutine, so that
	// httpGet may fail the test — each complete a fixed number of rounds
	// while the writers run; then the writers stop.
	const rounds = 50
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for range rounds {
			if _, err := cl.Stats(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range rounds {
		db.Flight().Dump()
		httpGet(t, admin.URL+"/debug/flight")
	}
	<-scraped
	close(stop)
	wg.Wait()

	if len(db.Flight().Dump()) == 0 {
		t.Fatal("flight recorder empty after concurrent run")
	}
}
