package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"silo"
	"silo/client"
	"silo/internal/ledger"
	"silo/internal/workload/ycsb"
	"silo/wire"
)

// TestLedger holds the server's counts: the zero-allocation request cycle
// for every execShapes entry, plain and under armed slow-op capture, and
// the durable write load that closes epochs on demand.
func TestLedger(t *testing.T) {
	s, st, stop := benchExec(t)
	defer stop()
	c := newChain()
	var rows []ledger.Row
	for _, slowAt := range []time.Duration{0, time.Hour} {
		for _, sh := range execShapes {
			name := sh.name
			if slowAt > 0 {
				name += ", slow capture"
			}
			rows = append(rows, ledger.Row{
				Layer: "server", Count: "allocs/op " + name, Bound: ledger.AtMost(0), Race: true,
				Claim: "a request's decode, execution and encode allocate nothing",
				How:   "testing.AllocsPerRun(200) of decode → runJob → putBuf on worker 0's context, after 32 warm cycles",
				Got: func() float64 {
					if op := sh.req.Ops[0]; op.Kind == wire.KindIScan {
						if page := execFrame(t, s, st, op); len(page.Entries) != 64 {
							t.Fatalf("%s pages %d rows (%v %s), want 64", name, len(page.Entries), page.Kind, page.Msg)
						}
					}
					frame := shapeFrame(t, s, sh.name, slowAt)
					cycle := func() { runCycle(t, s, st, c, frame) }
					for i := 0; i < 32; i++ {
						cycle() // warm scratch, arenas, and engine-side buffers
					}
					return testing.AllocsPerRun(200, cycle)
				},
			})
		}
	}
	rows = append(rows, ledger.Row{
		Layer: "server", Count: "demand-closed epochs, 32 clients × 64 ADDs", Bound: ledger.AtLeast(1),
		Claim: "§4.10: a parked group ack closes its epoch without waiting for the tick",
		How:   "silo_epoch_advances_total{cause=\"demand\"} after 2048 ADDs on a Sync log, 40 ms epoch, 4 workers, 100 000 loaded keys",
		Got:   func() float64 { return float64(demandClosedEpochs(t)) },
	})
	ledger.Check(t, rows...)
}

// demandClosedEpochs runs the durable write shape: a group-ack server on a
// Sync log at the paper's 40 ms epoch and 4 workers, 100 000 loaded keys
// of 100 bytes, and 32 clients of two connections each issuing 64 ADDs
// (the YCSB write mix at 0 % reads). It returns the epochs closed on
// demand.
func demandClosedEpochs(t *testing.T) uint64 {
	db, err := silo.Open(silo.Options{
		Workers:       4,
		EpochInterval: 40 * time.Millisecond,
		Durability:    &silo.DurabilityOptions{Dir: t.TempDir(), Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cfg := ycsb.Config{Keys: 100_000, ValueSize: 100}
	ycsb.LoadSilo(db, cfg)
	srv := New(db, Options{Acks: AckGroup, DisableAutoCreate: true})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	const clients, adds = 32, 64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(ln.Addr().String(), client.Options{Conns: 2})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			gen := ycsb.NewGenerator(cfg, 42+uint64(c)*7919)
			var kb []byte
			for i := 0; i < adds; i++ {
				kb = ycsb.Key(gen.Next().Key, kb)
				if _, err := cl.Add(ycsb.TableName, kb, 1); err != nil {
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
	return db.Observe().Value("silo_epoch_advances_total", "demand")
}
