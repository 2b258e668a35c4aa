package tpcc

import (
	"bytes"
	"testing"

	"silo/internal/core"
)

// Per-transaction semantic tests: each transaction's database effects are
// checked directly, not just through the aggregate consistency conditions.

func setupClient(t *testing.T, warehouses int) (*core.Store, *Tables, Scale, *Client) {
	t.Helper()
	db := newTestDB(t, 1)
	s := db.Store()
	sc := tinyScale(warehouses)
	tables := Load(db, sc)
	cfg := StandardConfig()
	cfg.RollbackPct = 0 // deterministic tests drive rollback explicitly
	c := NewClient(tables, sc, s.Worker(0), 1, cfg, 42)
	return s, tables, sc, c
}

func getDistrict(t *testing.T, s *core.Store, tb *Tables, w, d int) District {
	t.Helper()
	var di District
	if err := s.Worker(0).Run(func(tx *core.Tx) error {
		v, err := tx.Get(tb.District, DistrictKey(nil, w, d))
		if err != nil {
			return err
		}
		di.Unmarshal(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return di
}

func TestNewOrderEffects(t *testing.T) {
	s, tb, sc, c := setupClient(t, 1)
	before := make([]District, sc.DistrictsPerWH+1)
	for d := 1; d <= sc.DistrictsPerWH; d++ {
		before[d] = getDistrict(t, s, tb, 1, d)
	}
	nOrders := tb.Order.Tree.Len()
	nNew := tb.NewOrder.Tree.Len()
	nLines := tb.OrderLine.Tree.Len()

	const runs = 20
	for i := 0; i < runs; i++ {
		if err := c.Run(TxnNewOrder); err != nil {
			t.Fatalf("new-order %d: %v", i, err)
		}
	}

	// Exactly `runs` new orders and new_order rows; 5–15 lines each.
	if got := tb.Order.Tree.Len() - nOrders; got != runs {
		t.Errorf("orders added=%d want %d", got, runs)
	}
	if got := tb.NewOrder.Tree.Len() - nNew; got != runs {
		t.Errorf("new_order rows added=%d want %d", got, runs)
	}
	addedLines := tb.OrderLine.Tree.Len() - nLines
	if addedLines < 5*runs || addedLines > 15*runs {
		t.Errorf("order lines added=%d out of [%d,%d]", addedLines, 5*runs, 15*runs)
	}
	// District next-order ids advanced by exactly the per-district order
	// counts.
	total := 0
	for d := 1; d <= sc.DistrictsPerWH; d++ {
		after := getDistrict(t, s, tb, 1, d)
		total += int(after.NextOID - before[d].NextOID)
	}
	if total != runs {
		t.Errorf("sum of NextOID advances=%d want %d", total, runs)
	}
	if err := CheckConsistency(s, tb, sc); err != nil {
		t.Fatal(err)
	}
}

func TestNewOrderRollbackLeavesNoTrace(t *testing.T) {
	s, tb, sc, c := setupClient(t, 1)
	c.Cfg.RollbackPct = 100 // every new-order aborts on the invalid item

	// Count logical (visible) orders: aborted inserts may leave absent
	// placeholder records in the tree until the GC unhooks them, which is
	// by design (§4.5); they are invisible to transactions.
	countOrders := func() int {
		n := 0
		s.Worker(0).Run(func(tx *core.Tx) error {
			n = 0
			return tx.Scan(tb.Order, OrderKey(nil, 0, 0, 0), nil, func(_, _ []byte) bool {
				n++
				return true
			})
		})
		return n
	}
	nOrders := countOrders()
	for i := 0; i < 10; i++ {
		if err := c.Run(TxnNewOrder); err != ErrRollback {
			t.Fatalf("want ErrRollback, got %v", err)
		}
	}
	if got := countOrders(); got != nOrders {
		t.Errorf("rolled-back new-orders left %d visible orders", got-nOrders)
	}
	// The district counter must not have advanced (ids roll back with the
	// transaction — the property FastIDs deliberately sacrifices).
	di := getDistrict(t, s, tb, 1, 1)
	if int(di.NextOID) != sc.InitOrdersPerDist+1 {
		// Any district might have been targeted; check them all sum to 0.
		total := 0
		for d := 1; d <= sc.DistrictsPerWH; d++ {
			total += int(getDistrict(t, s, tb, 1, d).NextOID) - (sc.InitOrdersPerDist + 1)
		}
		if total != 0 {
			t.Errorf("district counters advanced by %d despite rollbacks", total)
		}
	}
	if err := CheckConsistency(s, tb, sc); err != nil {
		t.Fatal(err)
	}
}

func TestFastIDsSacrificesContiguity(t *testing.T) {
	s, tb, sc, c := setupClient(t, 1)
	c.Cfg.FastIDs = true
	c.Cfg.RollbackPct = 100
	for i := 0; i < 5; i++ {
		c.Run(TxnNewOrder) // rolls back, but the id txn already committed
	}
	total := 0
	for d := 1; d <= sc.DistrictsPerWH; d++ {
		total += int(getDistrict(t, s, tb, 1, d).NextOID) - (sc.InitOrdersPerDist + 1)
	}
	if total != 5 {
		t.Errorf("FastIDs counters advanced by %d, want 5 (ids do not roll back)", total)
	}
	_ = s
}

func TestPaymentEffects(t *testing.T) {
	s, tb, sc, c := setupClient(t, 1)
	var wBefore Warehouse
	s.Worker(0).Run(func(tx *core.Tx) error {
		v, err := tx.Get(tb.Warehouse, WarehouseKey(nil, 1))
		if err != nil {
			return err
		}
		wBefore.Unmarshal(v)
		return nil
	})
	nHist := tb.History.Tree.Len()

	const runs = 30
	for i := 0; i < runs; i++ {
		if err := c.Run(TxnPayment); err != nil {
			t.Fatalf("payment %d: %v", i, err)
		}
	}
	var wAfter Warehouse
	s.Worker(0).Run(func(tx *core.Tx) error {
		v, err := tx.Get(tb.Warehouse, WarehouseKey(nil, 1))
		if err != nil {
			return err
		}
		wAfter.Unmarshal(v)
		return nil
	})
	if wAfter.YTD <= wBefore.YTD {
		t.Error("warehouse YTD did not grow")
	}
	if got := tb.History.Tree.Len() - nHist; got != runs {
		t.Errorf("history rows added=%d want %d", got, runs)
	}
	if err := CheckMoney(s, tb, sc); err != nil {
		t.Fatal(err)
	}
}

func TestPaymentByNamePicksMiddleCustomer(t *testing.T) {
	s, tb, sc, _ := setupClient(t, 1)
	// All customers with the same last name, ordered by first name; clause
	// 2.5.2.2 requires the ⌈n/2⌉-th. With tinyScale names cycle per
	// customer id, so look one up directly.
	w := s.Worker(0)
	var ids []int
	last := LastNameLoad(1) // name of customer 1 (and only 1 at 30 custs)
	err := w.Run(func(tx *core.Tx) error {
		ids = ids[:0]
		lo := CustomerNamePrefixLo(nil, 1, 1, last)
		hi := CustomerNamePrefixHi(nil, 1, 1, last)
		// Entry values hold the customer primary key (w,d,c) behind the
		// covering length prefix.
		var perr error
		serr := tx.Scan(tb.CustomerName.Entries, lo, hi, func(_, v []byte) bool {
			pk, _, err := tb.CustomerName.SplitEntryValue(v)
			if err != nil {
				perr = err
				return false
			}
			ids = append(ids, int(bigEndianU32(pk[8:12])))
			return true
		})
		if serr != nil {
			return serr
		}
		return perr
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatalf("no customers with last name %q", last)
	}
	// The client helper must pick position ⌈n/2⌉.
	c := NewClient(tb, sc, w, 1, StandardConfig(), 1)
	var picked int
	err = w.Run(func(tx *core.Tx) error {
		var err error
		picked, err = c.lookupByName(tx, 1, 1, last)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ids[(len(ids)+1)/2-1]
	if picked != want {
		t.Errorf("lookupByName picked %d want %d of %v", picked, want, ids)
	}
}

func TestDeliveryDeliversOldest(t *testing.T) {
	s, tb, sc, c := setupClient(t, 1)
	// Oldest undelivered order per district is the first new_order entry.
	oldest := make(map[int]int)
	s.Worker(0).Run(func(tx *core.Tx) error {
		for d := 1; d <= sc.DistrictsPerWH; d++ {
			lo := NewOrderKey(nil, 1, d, 0)
			hi := NewOrderKey(nil, 1, d+1, 0)
			tx.Scan(tb.NewOrder, lo, hi, func(k, _ []byte) bool {
				oldest[d] = int(bigEndianU32(k[8:12]))
				return false
			})
		}
		return nil
	})
	if len(oldest) != sc.DistrictsPerWH {
		t.Fatalf("expected undelivered orders in all districts, got %d", len(oldest))
	}

	if err := c.Run(TxnDelivery); err != nil {
		t.Fatal(err)
	}

	s.Worker(0).Run(func(tx *core.Tx) error {
		for d, o := range oldest {
			// The new_order row is gone.
			if _, err := tx.Get(tb.NewOrder, NewOrderKey(nil, 1, d, o)); err != core.ErrNotFound {
				t.Errorf("district %d: new_order %d still present (%v)", d, o, err)
			}
			// The order has a carrier.
			v, err := tx.Get(tb.Order, OrderKey(nil, 1, d, o))
			if err != nil {
				t.Errorf("district %d order %d: %v", d, o, err)
				continue
			}
			var ord Order
			ord.Unmarshal(v)
			if ord.CarrierID == 0 {
				t.Errorf("district %d order %d: no carrier", d, o)
			}
			// All its lines have delivery dates.
			lo := OrderLinePrefixLo(nil, 1, d, o)
			hi := OrderLinePrefixHi(nil, 1, d, o+1)
			var line OrderLine
			tx.Scan(tb.OrderLine, lo, hi, func(_, v []byte) bool {
				line.Unmarshal(v)
				if line.DeliveryDate == 0 {
					t.Errorf("district %d order %d: undelivered line", d, o)
				}
				return true
			})
		}
		return nil
	})
	if err := CheckConsistency(s, tb, sc); err != nil {
		t.Fatal(err)
	}
}

func TestOrderStatusFindsLatestOrder(t *testing.T) {
	s, tb, sc, c := setupClient(t, 1)
	// Give customer 1 a new order so their latest is well-defined and
	// newer than the loader's.
	if err := c.Run(TxnNewOrder); err != nil {
		t.Fatal(err)
	}
	// Find customer 1's newest order id via the index directly.
	var newest int
	s.Worker(0).Run(func(tx *core.Tx) error {
		lo := OrderCustPrefixLo(nil, 1, 1, 1)
		hi := OrderCustPrefixHi(nil, 1, 1, 1)
		// Entry values are order primary keys (w,d,o).
		tx.Scan(tb.OrderCust.Entries, lo, hi, func(_, v []byte) bool {
			newest = int(bigEndianU32(v[8:12]))
			return false
		})
		return nil
	})
	// Brute force: max o_id over the order table for this customer.
	var brute int
	s.Worker(0).Run(func(tx *core.Tx) error {
		lo := OrderKey(nil, 1, 1, 0)
		hi := OrderKey(nil, 1, 2, 0)
		var ord Order
		tx.Scan(tb.Order, lo, hi, func(k, v []byte) bool {
			ord.Unmarshal(v)
			if ord.CID == 1 {
				if o := int(bigEndianU32(k[8:12])); o > brute {
					brute = o
				}
			}
			return true
		})
		return nil
	})
	if newest == 0 || newest != brute {
		t.Errorf("index newest=%d brute-force newest=%d", newest, brute)
	}
	// And the transaction itself must run clean.
	for i := 0; i < 10; i++ {
		if err := c.Run(TxnOrderStatus); err != nil {
			t.Fatalf("order-status: %v", err)
		}
	}
	_ = sc
}

func TestStockLevelAgainstBruteForce(t *testing.T) {
	s, tb, sc, c := setupClient(t, 1)
	_ = c
	// Compute the stock-level answer by brute force for district 1 and
	// every threshold, then check the transaction body computes the same
	// (exposed indirectly: we reimplement its logic over a reader and
	// compare against a direct table walk).
	w := s.Worker(0)
	di := getDistrict(t, s, tb, 1, 1)
	lo := int(di.NextOID) - 20
	if lo < 1 {
		lo = 1
	}
	seen := map[uint32]bool{}
	w.Run(func(tx *core.Tx) error {
		klo := OrderLinePrefixLo(nil, 1, 1, lo)
		khi := OrderLinePrefixHi(nil, 1, 1, int(di.NextOID))
		var line OrderLine
		return tx.Scan(tb.OrderLine, klo, khi, func(_, v []byte) bool {
			line.Unmarshal(v)
			seen[line.ItemID] = true
			return true
		})
	})
	if len(seen) == 0 {
		t.Fatal("no items in the last 20 orders")
	}
	threshold := int32(15)
	want := 0
	w.Run(func(tx *core.Tx) error {
		var st Stock
		for id := range seen {
			v, err := tx.Get(tb.Stock, StockKey(nil, 1, int(id)))
			if err != nil {
				return err
			}
			st.Unmarshal(v)
			if st.Quantity < threshold {
				want++
			}
		}
		return nil
	})
	// The same computation through the transaction body (regular reader).
	cl := NewClient(tb, sc, w, 1, StandardConfig(), 3)
	got := -1
	err := w.RunOnce(func(tx *core.Tx) error {
		r := tx
		// stockLevelBody counts internally; reproduce with its reader to
		// keep the check honest.
		var di District
		v, err := r.Get(cl.T.District, DistrictKey(nil, 1, 1))
		if err != nil {
			return err
		}
		di.Unmarshal(v)
		next := int(di.NextOID)
		lo := next - 20
		if lo < 1 {
			lo = 1
		}
		items := map[uint32]struct{}{}
		var line OrderLine
		if err := r.Scan(cl.T.OrderLine, OrderLinePrefixLo(nil, 1, 1, lo), OrderLinePrefixHi(nil, 1, 1, next), func(_, v []byte) bool {
			line.Unmarshal(v)
			items[line.ItemID] = struct{}{}
			return true
		}); err != nil {
			return err
		}
		got = 0
		var st Stock
		for id := range items {
			v, err := r.Get(cl.T.Stock, StockKey(nil, 1, int(id)))
			if err != nil {
				return err
			}
			st.Unmarshal(v)
			if st.Quantity < threshold {
				got++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("stock-level got %d want %d", got, want)
	}
}

func TestValueRoundTrips(t *testing.T) {
	// Marshal/Unmarshal round-trips for every row type.
	w := Warehouse{Tax: 123, YTD: 9999}
	copy(w.Name[:], "wname")
	var w2 Warehouse
	w2.Unmarshal(w.Marshal(nil))
	if w2.Tax != w.Tax || w2.YTD != w.YTD || w2.Name != w.Name {
		t.Error("warehouse")
	}
	d := District{Tax: 5, YTD: 6, NextOID: 7}
	var d2 District
	d2.Unmarshal(d.Marshal(nil))
	if d2 != d {
		t.Error("district")
	}
	c := Customer{Balance: -42, YTDPayment: 10, PaymentCnt: 3, DeliveryCnt: 1, Discount: 99}
	copy(c.Credit[:], "BC")
	copy(c.Last[:], "SMITH")
	copy(c.First[:], "ANNA")
	copy(c.Data[:], "some data")
	var c2 Customer
	c2.Unmarshal(c.Marshal(nil))
	if c2 != c {
		t.Error("customer")
	}
	o := Order{CID: 1, EntryDate: 2, CarrierID: 3, OLCount: 4, AllLocal: 1}
	var o2 Order
	o2.Unmarshal(o.Marshal(nil))
	if o2 != o {
		t.Error("order")
	}
	ol := OrderLine{ItemID: 1, SupplyWID: 2, Quantity: 3, Amount: 4, DeliveryDate: 5}
	copy(ol.DistInfo[:], "distinfo")
	var ol2 OrderLine
	ol2.Unmarshal(ol.Marshal(nil))
	if ol2 != ol {
		t.Error("orderline")
	}
	it := Item{Price: 999}
	copy(it.Name[:], "item")
	copy(it.Data[:], "data")
	var it2 Item
	it2.Unmarshal(it.Marshal(nil))
	if it2 != it {
		t.Error("item")
	}
	st := Stock{Quantity: -5, YTD: 1, OrderCnt: 2, RemoteCnt: 3}
	copy(st.Dist[4][:], "d4info")
	copy(st.Data[:], "sdata")
	var st2 Stock
	st2.Unmarshal(st.Marshal(nil))
	if st2 != st {
		t.Error("stock")
	}
	h := History{Amount: 7, Date: 8}
	var h2 History
	h2.Unmarshal(h.Marshal(nil))
	if h2.Amount != h.Amount || h2.Date != h.Date {
		t.Error("history")
	}
}

func TestKeyOrderingMatchesClustering(t *testing.T) {
	// Composite keys must sort by (w, d, o, ol) so scans cluster properly.
	a := OrderLineKey(nil, 1, 2, 3, 4)
	b := OrderLineKey(nil, 1, 2, 3, 5)
	c := OrderLineKey(nil, 1, 2, 4, 1)
	d := OrderLineKey(nil, 1, 3, 1, 1)
	e := OrderLineKey(nil, 2, 1, 1, 1)
	for i, pair := range [][2][]byte{{a, b}, {b, c}, {c, d}, {d, e}} {
		if string(pair[0]) >= string(pair[1]) {
			t.Errorf("pair %d out of order", i)
		}
	}
	// Reversed order id in the customer index: newer orders sort first.
	n1 := OrderCustKey(nil, 1, 1, 1, 10)
	n2 := OrderCustKey(nil, 1, 1, 1, 11)
	if string(n2) >= string(n1) {
		t.Error("newer order does not sort first in customer-order index")
	}
}

// TestOrderCustSpecMatchesKeyEncoding pins the declarative order-cust
// spec (reverse + invert transforms) to the canonical OrderCustKey
// encoding: the spec-extracted secondary key of an order row must be
// byte-identical to OrderCustKey(w, d, c, ^o), so the prefix bounds and
// most-recent-first scan order keep working.
func TestOrderCustSpecMatchesKeyEncoding(t *testing.T) {
	key := createTables(newTestDB(t, 1), "").OrderCust.Key
	for _, tc := range []struct{ w, d, c, o int }{
		{1, 1, 1, 1},
		{3, 9, 2999, 3000},
		{7, 2, 1, 255},
		{255, 10, 300, 256},
	} {
		ord := Order{CID: uint32(tc.c), EntryDate: 42, OLCount: 5, AllLocal: 1}
		pk := OrderKey(nil, tc.w, tc.d, tc.o)
		val := ord.Marshal(nil)
		got, ok := key(nil, pk, val)
		if !ok {
			t.Fatalf("spec declined order row %+v", tc)
		}
		want := OrderCustKey(nil, tc.w, tc.d, tc.c, tc.o)
		if !bytes.Equal(got, want) {
			t.Fatalf("spec key %x != OrderCustKey %x for %+v", got, want, tc)
		}
	}
}
