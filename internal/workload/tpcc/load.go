package tpcc

import (
	"fmt"

	"silo"
	"silo/internal/core"
	"silo/internal/index"
)

// Tables bundles handles to the TPC-C tables of one store. The two
// secondary indexes are internal/index indexes: their entries are
// maintained automatically inside every transaction that writes the
// customer or oorder tables, so neither the loader nor the transactions
// touch them explicitly.
type Tables struct {
	Warehouse    *core.Table
	District     *core.Table
	Customer     *core.Table
	CustomerName *index.Index // on customer: (w,d,last,first), non-unique, covering (balance, credit, first)
	History      *core.Table
	NewOrder     *core.Table
	Order        *core.Table
	OrderCust    *index.Index // on oorder: (w,d,c,^o), unique
	OrderLine    *core.Table
	Item         *core.Table
	Stock        *core.Table
}

// CreateTables declares the TPC-C schema on db in the canonical order.
// Every declaration goes through the schema catalog — tables and both
// secondary indexes are logged DDL — so a durable database recovered from
// its log reconstructs the whole schema by itself: the recovery side calls
// Handles, never CreateTables. The two index declarations are the
// wire-expressible spec forms (the customer-name index covering, the
// order-cust index transform-keyed), exactly as a client could request
// them over CREATE_INDEX frames. Call once per database.
func CreateTables(db *silo.DB) *Tables {
	t := &Tables{}
	for _, name := range TableNames {
		switch name {
		case TWarehouse:
			t.Warehouse = db.CreateTable(name)
		case TDistrict:
			t.District = db.CreateTable(name)
		case TCustomer:
			t.Customer = db.CreateTable(name)
		case TCustomerName:
			// Covering: entry values carry (balance, credit, first) so
			// order-status by name never resolves customer rows.
			ix, err := db.CreateIndexSpec(0, t.Customer, name, false,
				CustomerNameIndexSpec(), CustomerNameIncludeSpec()...)
			if err != nil {
				panic("tpcc: customer-name index: " + err.Error())
			}
			t.CustomerName = ix
		case THistory:
			t.History = db.CreateTable(name)
		case TNewOrder:
			t.NewOrder = db.CreateTable(name)
		case TOrder:
			t.Order = db.CreateTable(name)
		case TOrderCust:
			ix, err := db.CreateIndexSpec(0, t.Order, name, true, OrderCustIndexSpec())
			if err != nil {
				panic("tpcc: order-cust index: " + err.Error())
			}
			t.OrderCust = ix
		case TOrderLine:
			t.OrderLine = db.CreateTable(name)
		case TItem:
			t.Item = db.CreateTable(name)
		case TStock:
			t.Stock = db.CreateTable(name)
		}
	}
	return t
}

// Handles resolves the TPC-C table and index handles of a database whose
// schema already exists — the lookup-side complement of CreateTables, for
// databases recovered from a self-describing log. It panics on a missing
// table or index: a recovered TPC-C database that lacks part of the schema
// is a recovery bug, not a condition callers handle.
func Handles(db *silo.DB) *Tables {
	tbl := func(name string) *core.Table {
		t := db.Table(name)
		if t == nil {
			panic("tpcc: recovered database missing table " + name)
		}
		return t
	}
	ix := func(name string) *index.Index {
		i := db.Index(name)
		if i == nil {
			panic("tpcc: recovered database missing index " + name)
		}
		return i
	}
	return &Tables{
		Warehouse:    tbl(TWarehouse),
		District:     tbl(TDistrict),
		Customer:     tbl(TCustomer),
		CustomerName: ix(TCustomerName),
		History:      tbl(THistory),
		NewOrder:     tbl(TNewOrder),
		Order:        tbl(TOrder),
		OrderCust:    ix(TOrderCust),
		OrderLine:    tbl(TOrderLine),
		Item:         tbl(TItem),
		Stock:        tbl(TStock),
	}
}

// Load declares the schema on db (see CreateTables) and populates it at
// the given scale, committing in batches on worker 0. The initial
// population mirrors TPC-C 4.3.3 at the configured cardinalities: every
// customer has one initial order; the most recent third of orders per
// district are undelivered (present in new_order with no carrier),
// matching the standard's 900-of-3000 ratio.
func Load(db *silo.DB, sc Scale) *Tables {
	t := CreateTables(db)
	loadRows(db.Store(), t, sc)
	return t
}

// loadRows performs the initial population of Load into already-created
// tables.
func loadRows(s *core.Store, t *Tables, sc Scale) {
	w := s.Worker(0)
	rng := NewRNG(12345)

	batch := newBatcher(w, 256)

	// Items.
	var kb, vb []byte
	for i := 1; i <= sc.Items; i++ {
		it := Item{Price: uint64(rnd(rng, 100, 10000))}
		copy(it.Name[:], fmt.Sprintf("item-%d", i))
		copy(it.Data[:], "original-data")
		kb = ItemKey(kb, i)
		vb = it.Marshal(vb)
		batch.insert(t.Item, kb, vb)
	}

	for wh := 1; wh <= sc.Warehouses; wh++ {
		wr := Warehouse{Tax: uint32(rnd(rng, 0, 2000)), YTD: 30000000}
		copy(wr.Name[:], fmt.Sprintf("wh-%d", wh))
		kb = WarehouseKey(kb, wh)
		vb = wr.Marshal(vb)
		batch.insert(t.Warehouse, kb, vb)

		// Stock for every item.
		for i := 1; i <= sc.Items; i++ {
			st := Stock{Quantity: int32(rnd(rng, 10, 100))}
			copy(st.Data[:], "stock-data")
			for d := range st.Dist {
				copy(st.Dist[d][:], fmt.Sprintf("dist-%d-%d", d+1, i))
			}
			kb = StockKey(kb, wh, i)
			vb = st.Marshal(vb)
			batch.insert(t.Stock, kb, vb)
		}

		for d := 1; d <= sc.DistrictsPerWH; d++ {
			di := District{
				Tax:     uint32(rnd(rng, 0, 2000)),
				YTD:     3000000,
				NextOID: uint32(sc.InitOrdersPerDist + 1),
			}
			copy(di.Name[:], fmt.Sprintf("d-%d-%d", wh, d))
			kb = DistrictKey(kb, wh, d)
			vb = di.Marshal(vb)
			batch.insert(t.District, kb, vb)

			// Customers; the name index maintains itself off these inserts.
			for c := 1; c <= sc.CustomersPerDist; c++ {
				cu := Customer{
					Balance:  -1000,
					Discount: uint32(rnd(rng, 0, 5000)),
				}
				if rnd(rng, 1, 10) == 1 {
					copy(cu.Credit[:], "BC")
				} else {
					copy(cu.Credit[:], "GC")
				}
				last := LastNameLoad(c)
				first := FirstName(c)
				copy(cu.Last[:], last)
				copy(cu.First[:], first)
				copy(cu.Data[:], "customer-data-filler")
				kb = CustomerKey(kb, wh, d, c)
				vb = cu.Marshal(vb)
				batch.insert(t.Customer, kb, vb)

				// One initial history row.
				h := History{Amount: 1000, Date: 1}
				kb = HistoryKey(kb, wh, d, c, 0)
				vb = h.Marshal(vb)
				batch.insert(t.History, kb, vb)
			}

			// Initial orders: customer ids permuted over orders; the last
			// third are undelivered.
			perm := rng.Perm(sc.CustomersPerDist)
			for o := 1; o <= sc.InitOrdersPerDist; o++ {
				cid := perm[(o-1)%len(perm)] + 1
				olCnt := rnd(rng, 5, 15)
				delivered := o <= sc.InitOrdersPerDist*2/3
				ord := Order{
					CID:       uint32(cid),
					EntryDate: uint64(o),
					OLCount:   uint32(olCnt),
					AllLocal:  1,
				}
				if delivered {
					ord.CarrierID = uint32(rnd(rng, 1, 10))
				}
				kb = OrderKey(kb, wh, d, o)
				vb = ord.Marshal(vb)
				batch.insert(t.Order, kb, vb)

				if !delivered {
					kb = NewOrderKey(kb, wh, d, o)
					batch.insert(t.NewOrder, kb, NewOrderVal)
				}

				for ol := 1; ol <= olCnt; ol++ {
					line := OrderLine{
						ItemID:    uint32(rnd(rng, 1, sc.Items)),
						SupplyWID: uint32(wh),
						Quantity:  5,
						Amount:    uint64(rnd(rng, 1, 999900)),
					}
					if delivered {
						line.DeliveryDate = uint64(o)
					}
					copy(line.DistInfo[:], "dist-info")
					kb = OrderLineKey(kb, wh, d, o, ol)
					vb = line.Marshal(vb)
					batch.insert(t.OrderLine, kb, vb)
				}
			}
		}
	}
	batch.flush()
}

// batcher groups loader inserts into transactions.
type batcher struct {
	w   *core.Worker
	max int
	tx  *core.Tx
	n   int
}

func newBatcher(w *core.Worker, max int) *batcher {
	return &batcher{w: w, max: max}
}

func (b *batcher) insert(tbl *core.Table, key, val []byte) {
	if b.tx == nil {
		b.tx = b.w.Begin()
	}
	if err := b.tx.Insert(tbl, key, val); err != nil {
		panic(fmt.Sprintf("tpcc load: insert into %s: %v", tbl.Name, err))
	}
	b.n++
	if b.n >= b.max {
		b.flush()
	}
}

func (b *batcher) flush() {
	if b.tx == nil {
		return
	}
	if err := b.tx.Commit(); err != nil {
		panic(fmt.Sprintf("tpcc load: commit: %v", err))
	}
	b.tx = nil
	b.n = 0
}
