package tpcc

import (
	"runtime"
	"testing"

	"silo"
	"silo/internal/epoch"
	"silo/internal/ledger"
	"silo/internal/record"
	"silo/internal/sim"
)

// Allocation bounds per committed transaction of TestLedger: 1.3 × the
// 5 913 B and 54.21 objects measured with 24-byte read-set entries over a
// key arena the worker keeps. With 48-byte entries, a key slice per read
// and a read-set given back past 64 KiB of keys, the same run allocated
// 17 288 B and 56.57 objects.
//
// A committed Partitioned-Store new-order of the seeded run inserts 13.06
// rows (order, order-cust, new-order and 10.06 order lines). Each costs a
// Record, its value buffer and the one-entry version-change slice
// btree.InsertIfAbsent returns, and leaf splits add the rest: 3.29 objects
// per row, 42.95 per order. The bound is 3.5 per row. A read that copies
// its value instead of appending to the client's scratch allocates 3 +
// 2 × 10.06 more per order and fails it.
const (
	maxAllocBytesPerTxn    = 7_690
	maxAllocObjectsPerTxn  = 70.5
	maxPartObjectsPerOrder = 3.5 * 13.06
)

// TestLedger is the engine's allocation row for TPC-C: the bytes and
// objects the Go heap hands out per committed transaction of the standard
// mix, on one worker and one warehouse at DefaultScale. The inputs are
// seeded and a simulated clock closes an epoch every epochTxns
// transactions — about the rate of a worker of the two-worker benchmark —
// so the count depends on neither the host's speed nor its scheduler.
//
// It also logs the Delivery census: reads per Delivery and the share of
// them that are tombstones, the deleted new_order rows in front of each
// district's oldest undelivered order that wait for the snapshot horizon
// before the collector unhooks them, and the leaves in each Delivery's
// node-set, which its scans over those rows and their empty leaves fill.
func TestLedger(t *testing.T) {
	perTxn := ledger.Once(func() [2]float64 { return allocsPerTxn(t) })
	const how = "MemStats.TotalAlloc and Mallocs across 12 500 seeded standard-mix transactions on one worker, after 12 500 warm ones, an epoch per 250"
	ledger.Check(t,
		ledger.Row{Layer: "core", Count: "B allocated/committed TPC-C txn", Bound: ledger.AtMost(maxAllocBytesPerTxn), How: how, Race: true,
			Claim: "a transaction's read-set, node-set and key copies reuse what its worker keeps",
			Got:   func() float64 { return perTxn()[0] }},
		ledger.Row{Layer: "core", Count: "objects allocated/committed TPC-C txn", Bound: ledger.AtMost(maxAllocObjectsPerTxn), How: how, Race: true,
			Claim: "a transaction's read-set, node-set and key copies reuse what its worker keeps",
			Got:   func() float64 { return perTxn()[1] }},
		ledger.Row{Layer: "partition", Count: "objects allocated/committed Partitioned-Store new-order", Bound: ledger.AtMost(maxPartObjectsPerOrder), Race: true,
			How:   "MemStats.Mallocs across 10 000 seeded new-orders on a one-warehouse Partitioned-Store at DefaultScale, after 5 000 warm ones",
			Claim: "a read appends to the client's scratch: only the rows an order inserts allocate",
			Got:   func() float64 { return partObjectsPerOrder(t) }},
	)
}

// partObjectsPerOrder returns the objects allocated per committed
// Partitioned-Store new-order, and logs the rows each inserts.
func partObjectsPerOrder(t *testing.T) float64 {
	const warm, measured = 5_000, 10_000
	sc := DefaultScale(1)
	ps := LoadPartitioned(sc, 1)
	pc := NewPartClient(ps, sc, 1, StandardConfig(), 52)
	for i := 0; i < warm; i++ {
		pc.NewOrder()
	}
	inserted := func() (orders, rows int) {
		for _, tbl := range []int{ordOrder, ordOrderCust, ordNewOrder, ordOrderLine} {
			n := len(partRows(ps, tbl))
			if tbl == ordOrder {
				orders = n
			}
			rows += n
		}
		return orders, rows
	}
	orders, rows := inserted()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		pc.NewOrder()
	}
	runtime.ReadMemStats(&after)
	o, r := inserted()
	committed := float64(o - orders)
	t.Logf("Partitioned-Store: %.0f committed new-orders inserting %.2f rows each, %.2f objects per row",
		committed, float64(r-rows)/committed, float64(after.Mallocs-before.Mallocs)/float64(r-rows))
	return float64(after.Mallocs-before.Mallocs) / committed
}

// allocsPerTxn returns the bytes and objects allocated per committed
// transaction, and logs the Delivery census.
func allocsPerTxn(t *testing.T) [2]float64 {
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
	return [2]float64{bytes, objects}
}
