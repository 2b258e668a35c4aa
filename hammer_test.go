package silo_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"silo"
)

// hammerSeed randomizes the hammer's operation mix. Every run logs its
// seed; a failure is reproduced with
//
//	go test -run TestHammerDurableConcurrent -hammer.seed=<seed>
//
// or SILO_HAMMER_SEED=<seed>. 0 (the default) derives a fresh seed from
// the clock.
var hammerSeed = flag.Uint64("hammer.seed", 0, "seed for the randomized hammer test (0 = derive from time)")

func hammerSeedValue(t *testing.T) uint64 {
	seed := *hammerSeed
	if env := os.Getenv("SILO_HAMMER_SEED"); seed == 0 && env != "" {
		v, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("bad SILO_HAMMER_SEED %q: %v", env, err)
		}
		seed = v
	}
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	t.Logf("hammer seed %d (rerun with -hammer.seed=%d or SILO_HAMMER_SEED=%d)", seed, seed, seed)
	return seed
}

// TestHammerDurableConcurrent drives the full public API the way an
// application would: several worker goroutines doing conflicting
// read-modify-writes, inserts, deletes, scans, and snapshot reads with
// durability on — then recovers the log into a fresh database and checks
// the invariant survived end to end.
func TestHammerDurableConcurrent(t *testing.T) {
	hammer(t, &silo.DurabilityOptions{Dir: "", Loggers: 2}, false)
}

// TestHammerDaemonConcurrent is the same hammer with the background
// checkpoint daemon running throughout: partitioned checkpoints are cut
// off snapshot epochs while every worker commits, log segments rotate and
// get truncated under the daemon, and the crash/recover cycle restores
// from checkpoint + log suffix with parallel replay. Every invariant
// check must still hold.
func TestHammerDaemonConcurrent(t *testing.T) {
	hammer(t, &silo.DurabilityOptions{
		Dir:                  "",
		Loggers:              2,
		SegmentBytes:         8 << 10,
		CheckpointInterval:   5 * time.Millisecond,
		CheckpointPartitions: 3,
		RecoveryWorkers:      4,
	}, false)
}

// TestHammerCoveringDaemonConcurrent churns a covering-indexed table
// under the full concurrent mix with the checkpoint daemon running:
// upserts and deletes rewrite included fields while covering scans assert
// field freshness against the primary rows inside committed transactions,
// and the crash/recover cycle (checkpoint + log replay) must restore the
// covering entries bit-for-bit — an explicit freshness scan of every city
// gates the finish.
func TestHammerCoveringDaemonConcurrent(t *testing.T) {
	hammer(t, &silo.DurabilityOptions{
		Dir:                  "",
		Loggers:              2,
		SegmentBytes:         8 << 10,
		CheckpointInterval:   5 * time.Millisecond,
		CheckpointPartitions: 3,
		RecoveryWorkers:      4,
	}, true)
}

func hammer(t *testing.T, dopts *silo.DurabilityOptions, covering bool) {
	const (
		workers  = 4
		accounts = 32
		rounds   = 400
		initial  = 1000
	)
	seed := hammerSeedValue(t)
	dir := t.TempDir()
	dopts.Dir = dir
	db, err := silo.Open(silo.Options{
		Workers:       workers,
		EpochInterval: time.Millisecond,
		SnapshotK:     2,
		Durability:    dopts,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("accounts")
	audit := db.CreateTable("audit")
	users := db.CreateTable("users")
	byCity, err := createCityIndex(db, covering)
	if err != nil {
		t.Fatal(err)
	}

	key := func(i int) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, uint64(i))
		return b
	}
	if err := db.Run(0, func(tx *silo.Tx) error {
		for i := 0; i < accounts; i++ {
			v := make([]byte, 8)
			binary.BigEndian.PutUint64(v, initial)
			if err := tx.Insert(tbl, key(i), v); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// With the daemon on, the mix runs on past its rounds until a
	// checkpoint has completed beside it (or a deadline passes, and the
	// check below fails): a fast host can finish the rounds first.
	deadline := time.Now().Add(10 * time.Second)
	more := func() bool {
		ds, ok := db.CheckpointDaemon()
		return ok && ds.Checkpoints == 0 && time.Now().Before(deadline)
	}
	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			rng := seed ^ (uint64(wid)*2654435761 + 17)
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int((rng >> 33) % uint64(n))
			}
			for r := 0; r < rounds || more(); r++ {
				switch next(13) {
				case 0, 1, 2, 3, 4, 5: // transfer
					from, to := next(accounts), next(accounts)
					if from == to {
						continue
					}
					amt := uint64(next(20))
					if err := db.Run(wid, func(tx *silo.Tx) error {
						fv, err := tx.Get(tbl, key(from))
						if err != nil {
							return err
						}
						tv, err := tx.Get(tbl, key(to))
						if err != nil {
							return err
						}
						f := binary.BigEndian.Uint64(fv)
						g := binary.BigEndian.Uint64(tv)
						if f < amt {
							return nil
						}
						binary.BigEndian.PutUint64(fv, f-amt)
						binary.BigEndian.PutUint64(tv, g+amt)
						if err := tx.Put(tbl, key(from), fv); err != nil {
							return err
						}
						return tx.Put(tbl, key(to), tv)
					}); err != nil {
						t.Errorf("transfer: %v", err)
						return
					}
				case 6: // audit-table insert + delete churn
					k := []byte(fmt.Sprintf("a-%d-%d", wid, r))
					if err := db.Run(wid, func(tx *silo.Tx) error {
						return tx.Insert(audit, k, []byte("x"))
					}); err != nil {
						t.Errorf("audit insert: %v", err)
						return
					}
					if r%2 == 0 {
						if err := db.Run(wid, func(tx *silo.Tx) error {
							return tx.Delete(audit, k)
						}); err != nil {
							t.Errorf("audit delete: %v", err)
							return
						}
					}
				case 7: // full-scan invariant check (serializable)
					var total uint64
					if err := db.Run(wid, func(tx *silo.Tx) error {
						total = 0 // conflict retries re-run the closure
						return tx.Scan(tbl, key(0), nil, func(_, v []byte) bool {
							total += binary.BigEndian.Uint64(v)
							return true
						})
					}); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
					// Checked only after a successful commit: an aborted
					// OCC attempt may legally observe a torn scan.
					if total != accounts*initial {
						t.Errorf("serializable scan total=%d", total)
					}
				case 8: // snapshot invariant check (never aborts)
					if err := db.RunSnapshot(wid, func(stx *silo.SnapTx) error {
						var total uint64
						n := 0
						if err := stx.Scan(tbl, key(0), nil, func(_, v []byte) bool {
							total += binary.BigEndian.Uint64(v)
							n++
							return true
						}); err != nil {
							return err
						}
						if n == accounts && total != accounts*initial {
							t.Errorf("snapshot scan total=%d (n=%d)", total, n)
						}
						return nil
					}); err != nil {
						t.Errorf("snapshot: %v", err)
						return
					}
				case 9: // durable commit
					if err := db.RunDurable(wid, func(tx *silo.Tx) error {
						v, err := tx.Get(tbl, key(next(accounts)))
						_ = v
						return err
					}); err != nil {
						t.Errorf("durable: %v", err)
						return
					}
				case 10: // indexed-table upsert: insert a user or move their city
					k := userKey(next(64))
					v := userRow(next(cities), wid, r)
					if err := db.Run(wid, func(tx *silo.Tx) error {
						err := tx.Insert(users, k, v)
						if err == silo.ErrKeyExists {
							return tx.Put(users, k, v)
						}
						return err
					}); err != nil {
						t.Errorf("user upsert: %v", err)
						return
					}
				case 11: // indexed-table delete
					k := userKey(next(64))
					if err := db.Run(wid, func(tx *silo.Tx) error {
						if err := tx.Delete(users, k); err != silo.ErrNotFound {
							return err
						}
						return nil
					}); err != nil {
						t.Errorf("user delete: %v", err)
						return
					}
				case 12: // index consistency: entries == rows for one city, in one txn
					city := next(cities)
					var rows, entries, mismatches int
					if err := db.Run(wid, func(tx *silo.Tx) error {
						rows, entries, mismatches = 0, 0, 0 // conflict retries re-run the closure
						if err := tx.Scan(users, []byte{0}, nil, func(_, v []byte) bool {
							if int(v[0]) == city {
								rows++
							}
							return true
						}); err != nil {
							return err
						}
						return silo.ScanIndex(tx, byCity, cityKey(city), cityKey(city+1), func(sk, pk, v []byte) bool {
							if v[0] != sk[0] {
								mismatches++
							}
							entries++
							return true
						})
					}); err != nil {
						t.Errorf("index scan: %v", err)
						return
					}
					// Checked only after a successful commit: an aborted OCC
					// attempt may legally observe an entry whose row moved.
					if mismatches != 0 {
						t.Errorf("city %d: %d index entries resolved to rows in another city", city, mismatches)
					}
					if rows != entries {
						t.Errorf("city %d: %d rows but %d index entries", city, rows, entries)
					}
					if covering {
						checkCoveringFresh(t, db, wid, byCity, city)
					}
				}
			}
		}(wid)
	}
	wg.Wait()

	// Make everything durable, then recover into a fresh DB and re-check.
	if err := db.RunDurable(0, func(tx *silo.Tx) error {
		_, err := tx.Get(tbl, key(0))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if ds, ok := db.CheckpointDaemon(); ok {
		t.Logf("daemon: %d checkpoints (last CE=%d, %d rows), %d ticks skipped, %d segments truncated",
			ds.Checkpoints, ds.LastEpoch, ds.LastRows, ds.Skipped, ds.TruncatedSegments)
		if ds.LastErr != nil {
			t.Errorf("checkpoint daemon error: %v", ds.LastErr)
		}
		if ds.Checkpoints == 0 {
			t.Error("daemon never completed a checkpoint during the hammer")
		}
	}
	db.Close()

	db2, err := silo.Open(silo.Options{
		Durability: &silo.DurabilityOptions{Dir: dir, RecoveryWorkers: dopts.RecoveryWorkers},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, users2 := db2.Table("accounts"), db2.Table("users")
	// Re-declaring the recovered index is idempotent: the catalog rebuilt
	// the same declaration.
	byCity2, err := createCityIndex(db2, covering)
	if err != nil {
		t.Fatal(err)
	}
	if byCity2 != db2.Index("users_city") {
		t.Fatal("re-declaration did not return the recovered index")
	}
	var total uint64
	n := 0
	if err := db2.Run(0, func(tx *silo.Tx) error {
		total, n = 0, 0
		return tx.Scan(tbl2, key(0), key(accounts), func(_, v []byte) bool {
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

	// The index recovered as entry-table log records; it must still exactly
	// cover the users table.
	var rows, entries int
	if err := db2.Run(0, func(tx *silo.Tx) error {
		rows, entries = 0, 0
		if err := tx.Scan(users2, []byte{0}, nil, func(_, _ []byte) bool {
			rows++
			return true
		}); err != nil {
			return err
		}
		return silo.ScanIndex(tx, byCity2, []byte{0}, nil, func(sk, _, v []byte) bool {
			if v[0] != sk[0] {
				t.Errorf("recovered index entry %x resolves to city %d", sk, v[0])
			}
			entries++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if rows != entries {
		t.Fatalf("recovered index has %d entries for %d rows", entries, rows)
	}
	if covering {
		for city := 0; city < cities; city++ {
			checkCoveringFresh(t, db2, 0, byCity2, city)
		}
	}
}

// citySpec and cityInclude are the declarative form of the hammer's city
// index: key = the 1-byte city code at the start of the row, include =
// the row's first 4 bytes (city code plus writer tag), so covering scans
// can be checked for freshness against the primary row prefix.
func citySpec() []silo.IndexSeg    { return []silo.IndexSeg{{FromValue: true, Off: 0, Len: 1}} }
func cityInclude() []silo.IndexSeg { return []silo.IndexSeg{{FromValue: true, Off: 0, Len: 4}} }

func createCityIndex(db *silo.DB, covering bool) (*silo.Index, error) {
	var include []silo.IndexSeg
	if covering {
		include = cityInclude()
	}
	return db.CreateIndexSpec(0, db.Table("users"), "users_city", false, citySpec(), include...)
}

// checkCoveringFresh audits one city's covering entries for included-
// field freshness against their rows, in one committed transaction
// (serializability makes any divergence a maintenance bug: an update
// changed row bytes without rewriting the covering entry). Mid-audit
// races surface as ErrConflict and retry inside db.Run.
func checkCoveringFresh(t *testing.T, db *silo.DB, wid int, ix *silo.Index, city int) {
	t.Helper()
	if err := db.Run(wid, func(tx *silo.Tx) error {
		return silo.VerifyIndexCovering(tx, ix, cityKey(city), cityKey(city+1))
	}); err != nil {
		t.Errorf("city %d covering freshness: %v", city, err)
	}
}

// cities is the number of distinct city codes the hammer's indexed table
// uses; small enough that index ranges stay contended.
const cities = 8

func cityKey(c int) []byte { return []byte{byte(c)} }

func userKey(i int) []byte { return []byte(fmt.Sprintf("user-%02d", i)) }

// userRow builds a user row: city code byte, then filler identifying the
// writer.
func userRow(city, wid, r int) []byte {
	return []byte(fmt.Sprintf("%c-w%d-r%d", byte(city), wid, r))
}
