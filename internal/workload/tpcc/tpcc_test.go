package tpcc

import (
	"sync"
	"testing"
	"time"

	"silo"
)

func tinyScale(w int) Scale {
	return Scale{
		Warehouses:        w,
		DistrictsPerWH:    3,
		CustomersPerDist:  30,
		Items:             100,
		InitOrdersPerDist: 30,
	}
}

// newTestDB opens a catalog-backed database: the loader declares the
// TPC-C schema through logged DDL exactly as production callers do.
func newTestDB(t *testing.T, workers int) *silo.DB {
	t.Helper()
	db, err := silo.Open(silo.Options{Workers: workers, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestLoadAndConsistency(t *testing.T) {
	db := newTestDB(t, 1)
	s := db.Store()
	sc := tinyScale(2)
	tables := Load(db, sc)

	if n := tables.Item.Tree.Len(); n != sc.Items {
		t.Errorf("items: %d want %d", n, sc.Items)
	}
	if n := tables.Customer.Tree.Len(); n != sc.Warehouses*sc.DistrictsPerWH*sc.CustomersPerDist {
		t.Errorf("customers: %d", n)
	}
	if n := tables.Stock.Tree.Len(); n != sc.Warehouses*sc.Items {
		t.Errorf("stock: %d", n)
	}
	if err := CheckConsistency(s, tables, sc); err != nil {
		t.Fatalf("initial consistency: %v", err)
	}
	if err := CheckMoney(s, tables, sc); err != nil {
		t.Fatalf("initial money: %v", err)
	}
	if err := CheckIndexes(s, tables); err != nil {
		t.Fatalf("initial indexes: %v", err)
	}
}

func TestTransactionsSequential(t *testing.T) {
	db := newTestDB(t, 1)
	s := db.Store()
	sc := tinyScale(2)
	tables := Load(db, sc)
	cfg := StandardConfig()
	cfg.SnapshotStockLevel = true
	c := NewClient(tables, sc, s.Worker(0), 1, cfg, 7)

	for i := 0; i < 400; i++ {
		if err := c.RunMix(); err != nil && err != ErrRollback {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if c.Stats.Total() == 0 {
		t.Fatal("no commits")
	}
	if err := CheckConsistency(s, tables, sc); err != nil {
		t.Fatalf("consistency after mix: %v", err)
	}
	if err := CheckMoney(s, tables, sc); err != nil {
		t.Fatalf("money after mix: %v", err)
	}
	if err := CheckIndexes(s, tables); err != nil {
		t.Fatalf("indexes after mix: %v", err)
	}
}

func TestTransactionsConcurrent(t *testing.T) {
	const workers = 4
	db := newTestDB(t, workers)
	s := db.Store()
	sc := tinyScale(workers)
	tables := Load(db, sc)

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			cfg := StandardConfig()
			cfg.SnapshotStockLevel = true
			cfg.RemoteItemPct = 20 // force cross-warehouse conflicts
			c := NewClient(tables, sc, s.Worker(wid), wid+1, cfg, uint64(wid)+99)
			for i := 0; i < 250; i++ {
				if err := c.RunMix(); err != nil && err != ErrRollback {
					t.Errorf("worker %d txn %d: %v", wid, i, err)
					return
				}
			}
		}(wid)
	}
	wg.Wait()

	if err := CheckConsistency(s, tables, sc); err != nil {
		t.Fatalf("consistency after concurrent mix: %v", err)
	}
	if err := CheckMoney(s, tables, sc); err != nil {
		t.Fatalf("money after concurrent mix: %v", err)
	}
	if err := CheckIndexes(s, tables); err != nil {
		t.Fatalf("indexes after concurrent mix: %v", err)
	}
	for _, name := range TableNames {
		if err := s.Table(name).Tree.CheckInvariants(); err != nil {
			t.Fatalf("tree %s: %v", name, err)
		}
	}
}

// TestFullScaleLoad loads one warehouse at the standard TPC-C
// cardinalities (100k items, 3k customers/district) and runs the mix; it
// is the closest in-tree approximation of the paper's database sizing.
func TestFullScaleLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale load is slow; -short skips it")
	}
	db := newTestDB(t, 1)
	s := db.Store()
	sc := FullScale(1)
	tables := Load(db, sc)
	if tables.Stock.Tree.Len() != 100000 {
		t.Fatalf("stock=%d", tables.Stock.Tree.Len())
	}
	if tables.Customer.Tree.Len() != 30000 {
		t.Fatalf("customers=%d", tables.Customer.Tree.Len())
	}
	c := NewClient(tables, sc, s.Worker(0), 1, StandardConfig(), 5)
	for i := 0; i < 100; i++ {
		if err := c.RunMix(); err != nil && err != ErrRollback {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if err := CheckMoney(s, tables, sc); err != nil {
		t.Fatal(err)
	}
}

func TestLastNames(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Errorf("LastName(0) = %q", LastName(0))
	}
	if LastName(999) != "EINGEINGEING" {
		t.Errorf("LastName(999) = %q", LastName(999))
	}
	// NURand stays in range.
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if c := CustomerID(r, 30); c < 1 || c > 30 {
			t.Fatalf("CustomerID out of range: %d", c)
		}
		if it := ItemID(r, 100); it < 1 || it > 100 {
			t.Fatalf("ItemID out of range: %d", it)
		}
	}
}
