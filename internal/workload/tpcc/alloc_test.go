package tpcc

import (
	"runtime"
	"testing"

	"silo"
	"silo/internal/epoch"
	"silo/internal/race"
	"silo/internal/record"
	"silo/internal/sim"
)

// Allocation bounds per committed transaction of TestAllocationsPerTransaction:
// 1.3 × the 5 913 B and 54.21 objects measured with 24-byte read-set
// entries over a key arena the worker keeps. With 48-byte entries, a key
// slice per read and a read-set given back past 64 KiB of keys, the same
// run allocated 17 288 B and 56.57 objects.
const (
	maxAllocBytesPerTxn   = 7_690
	maxAllocObjectsPerTxn = 70.5
)

// TestAllocationsPerTransaction is the engine's allocation row for TPC-C:
// the bytes and objects the Go heap hands out per committed transaction of
// the standard mix, on one worker and one warehouse at DefaultScale. The
// inputs are seeded and a simulated clock closes an epoch every epochTxns
// transactions — about the rate of a worker of the two-worker benchmark —
// so the count depends on neither the host's speed nor its scheduler.
//
// It also logs the Delivery census: reads per Delivery and the share of
// them that are tombstones, the deleted new_order rows in front of each
// district's oldest undelivered order that wait for the snapshot horizon
// before the collector unhooks them, and the leaves in each Delivery's
// node-set, which its scans over those rows and their empty leaves fill.
func TestAllocationsPerTransaction(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		epochTxns = 250
		warm      = 12_500 // two snapshot horizons' worth of tombstones
		measured  = 12_500
		census    = 2_500
	)
	clk := sim.NewClock()
	db, err := silo.Open(silo.Options{Workers: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sc := DefaultScale(1)
	tables := Load(db, sc)
	c := NewClient(tables, sc, db.Store().Worker(0), 1, StandardConfig(), 51)
	n := 0
	run := func(tt TxnType) {
		if n%epochTxns == 0 {
			clk.Advance(epoch.DefaultInterval)
		}
		n++
		if err := c.Run(tt); err != nil && err != ErrRollback {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		run(c.NextType())
	}

	var before, after runtime.MemStats
	commits := c.Stats.Total()
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		run(c.NextType())
	}
	runtime.ReadMemStats(&after)
	commits = c.Stats.Total() - commits
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(commits)
	objects := float64(after.Mallocs-before.Mallocs) / float64(commits)
	t.Logf("allocated per committed transaction: %.0f B, %.2f objects (%d commits)", bytes, objects, commits)
	if bytes > maxAllocBytesPerTxn {
		t.Errorf("%.0f B allocated per committed transaction, bound %d", bytes, maxAllocBytesPerTxn)
	}
	if objects > maxAllocObjectsPerTxn {
		t.Errorf("%.2f objects allocated per committed transaction, bound %.2f", objects, maxAllocObjectsPerTxn)
	}

	var deliveries, reads, tombstones, nodes uint64
	var lo, hi []byte
	for i := 0; i < census; i++ {
		tt := c.NextType()
		if tt != TxnDelivery {
			run(tt)
			continue
		}
		for d := 1; d <= sc.DistrictsPerWH; d++ {
			lo, hi = NewOrderKey(lo, c.Home, d, 0), NewOrderKey(hi, c.Home, d+1, 0)
			tables.NewOrder.Tree.Scan(lo, hi, nil, func(_ []byte, rec *record.Record) bool {
				if !rec.ReadWord().Absent() {
					return false
				}
				tombstones++
				return true
			})
		}
		r0 := db.Observe().Value("silo_core_reads_total", "")
		run(tt)
		reads += db.Observe().Value("silo_core_reads_total", "") - r0
		nodes += uint64(db.Store().Worker(0).NodeSetLen())
		deliveries++
	}
	if deliveries == 0 || reads == 0 {
		t.Fatalf("census ran %d deliveries reading %d records", deliveries, reads)
	}
	t.Logf("Delivery census: %d deliveries, %.0f reads each, %.1f %% of them tombstones, %.0f node-set entries each",
		deliveries, float64(reads)/float64(deliveries), 100*float64(tombstones)/float64(reads), float64(nodes)/float64(deliveries))
}
