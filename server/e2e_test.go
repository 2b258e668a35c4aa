package server_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"silo"
	"silo/client"
	"silo/server"
)

// TestE2EBankInvariant is the end-to-end serializability harness of the
// networked front end: concurrent clients on loopback TCP issue
// conflicting one-shot transfer transactions against a shared account
// table while others audit the total balance with serializable scans. The
// sum is conserved by every committed transfer, so any snapshot a scan
// observes must total exactly accounts×initial — the same invariant
// pattern as internal/core/serializability_test.go, here crossing the
// wire protocol, the connection readers and the pooled worker contexts. Run it
// with -race to check the whole path for data races.
func TestE2EBankInvariant(t *testing.T) {
	const (
		accounts = 64
		initial  = 1000
		clients  = 4
		txnsPer  = 1200
	)
	db, err := silo.Open(silo.Options{Workers: 4, EpochInterval: 2 * time.Millisecond})
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

	key := func(i int) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, uint64(i))
		return b
	}
	val := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, v)
		return b
	}

	// Preload through the wire as multi-op transaction frames.
	loader, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < accounts; lo += 16 {
		txn := loader.Txn()
		for i := lo; i < lo+16 && i < accounts; i++ {
			txn.Insert("accounts", key(i), val(initial))
		}
		if _, err := txn.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	loader.Close()

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client owns its connections, as a real client process
			// would; two so round-robin multiplexing is exercised too.
			cl, err := client.Dial(ln.Addr().String(), client.Options{Conns: 2})
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			rng := uint64(c)*0x9E3779B97F4A7C15 + 1
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int((rng >> 33) % uint64(n))
			}
			for r := 0; r < txnsPer; r++ {
				switch next(10) {
				case 0, 1, 2, 3, 4, 5, 6: // conflicting transfer
					from, to := next(accounts), next(accounts)
					if from == to {
						to = (to + 1) % accounts
					}
					amt := int64(next(50))
					if _, err := cl.Txn().
						Add("accounts", key(from), -amt).
						Add("accounts", key(to), amt).
						Exec(); err != nil {
						errc <- fmt.Errorf("client %d txn %d: transfer: %w", c, r, err)
						return
					}
				case 7: // serializable full-scan audit
					pairs, err := cl.Scan("accounts", nil, nil, 0)
					if err != nil {
						errc <- fmt.Errorf("client %d txn %d: scan: %w", c, r, err)
						return
					}
					if len(pairs) != accounts {
						errc <- fmt.Errorf("client %d txn %d: scan saw %d accounts", c, r, len(pairs))
						return
					}
					var total uint64
					for _, p := range pairs {
						total += binary.BigEndian.Uint64(p.Value)
					}
					// Balances may transiently wrap below zero (transfers
					// are unconditional), but the modular sum is conserved
					// exactly by every committed transfer.
					if total != accounts*initial {
						errc <- fmt.Errorf("client %d txn %d: scan total = %d, want %d",
							c, r, total, accounts*initial)
						return
					}
				case 8: // read one balance
					if _, err := cl.Get("accounts", key(next(accounts))); err != nil {
						errc <- fmt.Errorf("client %d txn %d: get: %w", c, r, err)
						return
					}
				case 9: // insert/delete churn on a second table
					k := []byte(fmt.Sprintf("audit-%d-%d", c, r))
					if err := cl.Insert("audit", k, []byte("x")); err != nil {
						errc <- fmt.Errorf("client %d txn %d: insert: %w", c, r, err)
						return
					}
					if r%2 == 0 {
						if err := cl.Delete("audit", k); err != nil {
							errc <- fmt.Errorf("client %d txn %d: delete: %w", c, r, err)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Final audit through a fresh connection.
	cl, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pairs, err := cl.Scan("accounts", nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != accounts {
		t.Fatalf("final scan saw %d accounts, want %d", len(pairs), accounts)
	}
	var total uint64
	for _, p := range pairs {
		total += binary.BigEndian.Uint64(p.Value)
	}
	if total != accounts*initial {
		t.Fatalf("final total = %d, want %d", total, accounts*initial)
	}

	// The server really did execute everybody's transactions.
	var snap silo.ObsSnapshot
	srv.CollectObs(&snap)
	if n := snap.Value("silo_server_requests_total", ""); n < clients*txnsPer {
		t.Errorf("server executed %d requests, want >= %d", n, clients*txnsPer)
	}
	if n := db.Observe().Value("silo_core_commits_total", ""); n < clients*txnsPer {
		t.Errorf("engine committed %d transactions, want >= %d", n, clients*txnsPer)
	}
}

// TestE2EDurableServer runs transfers against a durability-enabled server,
// then recovers the log into a fresh database and checks the invariant
// survived: the network path composes with group commit and recovery.
func TestE2EDurableServer(t *testing.T) {
	const (
		accounts = 16
		initial  = 500
		clients  = 4
		txnsPer  = 150
	)
	dir := t.TempDir()
	db, err := silo.Open(silo.Options{
		Workers:       4,
		EpochInterval: time.Millisecond,
		Durability:    &silo.DurabilityOptions{Dir: dir, Loggers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Durability pins table IDs into the log; pre-create and disable
	// auto-creation as a durable deployment should.
	tbl := db.CreateTable("accounts")
	srv := server.New(db, server.Options{DisableAutoCreate: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	key := func(i int) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, uint64(i))
		return b
	}

	cl, err := client.Dial(ln.Addr().String(), client.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	txn := cl.Txn()
	for i := 0; i < accounts; i++ {
		v := make([]byte, 8)
		binary.BigEndian.PutUint64(v, initial)
		txn.Insert("accounts", key(i), v)
	}
	if _, err := txn.Exec(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := uint64(c + 99)
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int((rng >> 33) % uint64(n))
			}
			for r := 0; r < txnsPer; r++ {
				from, to := next(accounts), next(accounts)
				if from == to {
					continue
				}
				amt := int64(next(20))
				if _, err := cl.Txn().
					Add("accounts", key(from), -amt).
					Add("accounts", key(to), amt).
					Exec(); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cl.Close()
	srv.Close()

	// Push everything to the durable epoch, then recover fresh.
	if err := db.RunDurable(0, func(tx *silo.Tx) error {
		_, err := tx.Get(tbl, key(0))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := silo.Open(silo.Options{Durability: &silo.DurabilityOptions{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2 := db2.CreateTable("accounts")
	if _, err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	n := 0
	if err := db2.Run(0, func(tx *silo.Tx) error {
		total, n = 0, 0
		return tx.Scan(tbl2, key(0), nil, func(_, v []byte) bool {
			total += binary.BigEndian.Uint64(v)
			n++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if n != accounts || total != accounts*initial {
		t.Fatalf("recovered %d accounts totalling %d; want %d totalling %d",
			n, total, accounts, accounts*initial)
	}
}
