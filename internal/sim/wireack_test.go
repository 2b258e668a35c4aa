package sim

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"silo"
	"silo/client"
	"silo/server"
)

// These tests check the wire-level durability contract end to end: once
// the server writes an OK frame for a data write, a power cut at ANY
// later instant must not lose that write. The sim FS freezes the disk
// image at the cut while the oblivious process keeps running (post-cut
// fsyncs "succeed" but reach nothing), so an ack released before its
// epoch was truly durable shows up as a lost acknowledged write after
// Crash + recovery.

// startWireServer serves db on a loopback listener with the given ack
// mode and returns a connected client. Callers own db shutdown ordering;
// the returned stop func closes client and server only.
func startWireServer(t *testing.T, db *silo.DB, mode server.AckMode, conns int) (*client.Client, func()) {
	t.Helper()
	srv := server.New(db, server.Options{Acks: mode, DisableAutoCreate: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	cl, err := client.Dial(ln.Addr().String(), client.Options{Conns: conns})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return cl, func() {
		cl.Close()
		srv.Close()
	}
}

// recoverSim recovers a crash image into a fresh database and returns it.
func recoverSim(t *testing.T, img *FS) *silo.DB {
	t.Helper()
	db := openSimDB(t, img, NewClock())
	if _, err := db.Recover(); err != nil {
		db.Close()
		t.Fatalf("recover crash image: %v", err)
	}
	t.Cleanup(db.Close)
	return db
}

// simGet reads one key from a recovered database ("" and false when the
// table or key is absent).
func simGet(t *testing.T, db *silo.DB, table, key string) (string, bool) {
	t.Helper()
	tbl := db.Table(table)
	if tbl == nil {
		return "", false
	}
	var val string
	found := false
	err := db.Run(0, func(tx *silo.Tx) error {
		v, err := tx.Get(tbl, []byte(key))
		if err == silo.ErrNotFound {
			return nil
		}
		if err != nil {
			return err
		}
		val, found = string(v), true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return val, found
}

// TestCrashAfterAckRegression is the bug this PR fixes, pinned both ways.
// Under the historical immediate-ack path the server writes OK at
// in-memory commit: with the (virtual) clock frozen no logger pass ever
// runs, so a power cut right after the ack loses the acknowledged write.
// Under group acks the OK frame is parked until the write's epoch is
// durable, so by the time the client sees it the same power cut cannot
// touch it.
func TestCrashAfterAckRegression(t *testing.T) {
	// Immediate acks: the acknowledged write evaporates.
	{
		fs, clock := NewFS(), NewClock()
		db := openSimDB(t, fs, clock)
		db.CreateTable("t")
		cl, stop := startWireServer(t, db, server.AckImmediate, 1)
		if err := cl.Insert("t", []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		// The client holds an OK frame; cut power before any logger pass.
		fs.CutPower()
		img := fs.Crash(rand.New(rand.NewSource(1)))
		stop()
		db.Close()
		if _, found := simGet(t, recoverSim(t, img), "t", "k"); found {
			t.Fatal("immediate-ack write survived a power cut with no logger pass; this regression pin no longer exercises the hazard")
		}
	}
	// Group acks: the ack itself proves the write is durable.
	{
		fs, clock := NewFS(), NewClock()
		db := openSimDB(t, fs, clock)
		db.CreateTable("t")
		cl, stop := startWireServer(t, db, server.AckGroup, 1)
		done := make(chan error, 1)
		go func() { done <- cl.Insert("t", []byte("k"), []byte("v")) }()
		// The OK frame cannot arrive until logger passes make the commit
		// epoch durable — and those only run when we advance the clock.
		// The worker and writer are real goroutines, so interleave real
		// sleeps with the virtual advances to let them make progress.
		acked := false
		for deadline := time.Now().Add(10 * time.Second); !acked; {
			clock.Advance(5 * time.Millisecond)
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				acked = true
			case <-time.After(200 * time.Microsecond):
				if time.Now().After(deadline) {
					t.Fatal("group-ack insert never released; durable-epoch notification is wedged")
				}
			}
		}
		fs.CutPower()
		img := fs.Crash(rand.New(rand.NewSource(1)))
		stop()
		db.Close()
		if v, found := simGet(t, recoverSim(t, img), "t", "k"); !found || v != "v" {
			t.Fatalf("acknowledged group-ack write lost by power cut: found=%v v=%q", found, v)
		}
	}
}

// TestWireAckCorpusOracle runs seeded write storms against a group-ack
// server, arms a power cut at a random point in the byte stream, and
// checks the oracle: for every key, the recovered version is at least the
// newest version whose ack the client observed while power was still on.
// Acks observed after the cut are phantoms (the process is oblivious) and
// carry no promise; committed-but-unacked versions may also survive —
// both are why the oracle is ≥, not ==.
func TestWireAckCorpusOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs, clock := NewFS(), NewClock()
			db := openSimDB(t, fs, clock)
			db.CreateTable("t")
			cl, stop := startWireServer(t, db, server.AckGroup, 2)

			const writers, versions = 3, 20
			var mu sync.Mutex
			ackedVer := make(map[string]int) // newest version acked while power was on
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					key := fmt.Sprintf("k%d", g)
					for v := 1; v <= versions; v++ {
						var err error
						if v == 1 {
							err = cl.Insert("t", []byte(key), []byte(strconv.Itoa(v)))
						} else {
							err = cl.Put("t", []byte(key), []byte(strconv.Itoa(v)))
						}
						if err != nil {
							t.Errorf("writer %d version %d: %v", g, v, err)
							return
						}
						// The ack happened before this check: if power is
						// still on now, the fsync that released it reached
						// the frozen image.
						if !fs.PowerCut() {
							mu.Lock()
							ackedVer[key] = v
							mu.Unlock()
						}
					}
				}(g)
			}

			// Drive background time; at a random instant arm the cut so it
			// strikes mid-byte-stream. Keep advancing after the cut —
			// phantom fsyncs keep succeeding, so parked responses keep
			// releasing and the writers drain instead of wedging. The
			// writers are real goroutines doing TCP round trips, so each
			// virtual advance is paired with a real-time breather.
			cutAt := rng.Intn(40)
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			armed := false
			deadline := time.Now().Add(30 * time.Second)
			for i := 0; ; i++ {
				if i >= cutAt && !armed {
					// Arm only once some ack is on record, so the oracle
					// below is never vacuous.
					mu.Lock()
					anyAcked := len(ackedVer) > 0
					mu.Unlock()
					if anyAcked {
						fs.CutPowerAfter(rng.Int63n(4096))
						armed = true
					}
				}
				clock.Advance(5 * time.Millisecond)
				select {
				case <-finished:
				case <-time.After(100 * time.Microsecond):
					if time.Now().Before(deadline) {
						continue
					}
					t.Fatal("writers never drained")
				}
				break
			}
			if !armed {
				// The storm finished before the cut point; freeze now so
				// the oracle still has teeth (everything acked must
				// survive).
				fs.CutPower()
			}

			img := fs.Crash(rng)
			stop()
			db.Close()
			db2 := recoverSim(t, img)
			mu.Lock()
			defer mu.Unlock()
			if len(ackedVer) == 0 {
				t.Fatal("no power-on acks recorded; the oracle checked nothing")
			}
			for key, want := range ackedVer {
				got, found := simGet(t, db2, "t", key)
				if !found {
					t.Fatalf("key %s: version %d was acked before the cut but nothing recovered", key, want)
				}
				n, err := strconv.Atoi(got)
				if err != nil || n < want || n > versions {
					t.Fatalf("key %s: recovered version %q, want ≥ %d (acked before the cut)", key, got, want)
				}
			}
		})
	}
}

// TestWireAckHammerSync is the same oracle under a real clock: loggers and
// the epoch advancer run on their own tickers (as under `-sync` in
// production) while concurrent clients hammer the server and the power
// cut lands asynchronously mid-run.
func TestWireAckHammerSync(t *testing.T) {
	fs := NewFS()
	db, err := silo.Open(silo.Options{
		Workers:       2,
		EpochInterval: 2 * time.Millisecond,
		Durability:    &silo.DurabilityOptions{Dir: "db", Loggers: 1, Sync: true, FS: fs},
	})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("t")
	cl, stop := startWireServer(t, db, server.AckGroup, 4)

	const writers, versions = 4, 40
	var mu sync.Mutex
	ackedVer := make(map[string]int)
	firstAck := make(chan struct{}, writers) // one token per writer's first power-on ack
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g)
			for v := 1; v <= versions; v++ {
				var err error
				if v == 1 {
					err = cl.Insert("t", []byte(key), []byte(strconv.Itoa(v)))
				} else {
					err = cl.Put("t", []byte(key), []byte(strconv.Itoa(v)))
				}
				if err != nil {
					t.Errorf("writer %d version %d: %v", g, v, err)
					return
				}
				if !fs.PowerCut() {
					mu.Lock()
					ackedVer[key] = v
					mu.Unlock()
					if v == 1 {
						firstAck <- struct{}{}
					}
				}
			}
		}(g)
	}
	// Let the storm establish itself — every writer should have at least
	// one power-on ack — then arm the cut mid-byte-stream.
	timeout := time.After(10 * time.Second)
	for n := 0; n < writers; n++ {
		select {
		case <-firstAck:
		case <-timeout:
			n = writers
		}
	}
	fs.CutPowerAfter(2048)
	wg.Wait()

	img := fs.Crash(rand.New(rand.NewSource(7)))
	stop()
	db.Close()
	db2 := recoverSim(t, img)
	mu.Lock()
	defer mu.Unlock()
	if len(ackedVer) == 0 {
		t.Skip("power cut struck before any ack; nothing to check")
	}
	for key, want := range ackedVer {
		got, found := simGet(t, db2, "t", key)
		if !found {
			t.Fatalf("key %s: version %d was acked before the cut but nothing recovered", key, want)
		}
		if n, err := strconv.Atoi(got); err != nil || n < want {
			t.Fatalf("key %s: recovered version %q, want ≥ %d (acked before the cut)", key, got, want)
		}
	}
}
