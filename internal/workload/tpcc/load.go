package tpcc

import (
	"fmt"
	"slices"

	"silo"
	"silo/internal/core"
	"silo/internal/index"
)

// Tables bundles handles to the TPC-C tables of one store. The two
// secondary indexes are internal/index indexes: their entries are
// maintained automatically inside every transaction that writes the
// customer or oorder tables, so neither the loader nor the transactions
// touch them explicitly.
//
// A Tables is also a layout: of(w) is the handle set that holds warehouse
// w's rows. In Load's shared layout every warehouse's set is the Tables
// itself; in LoadSplit's, each warehouse has a set of its own. Clients,
// the loader and the checks reach rows only through of, so one code path
// serves both.
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

	wh []*Tables // wh[w-1] holds warehouse w's rows
}

// of returns the handle set that holds warehouse w's rows.
func (t *Tables) of(w int) *Tables { return t.wh[w-1] }

// sets returns the distinct handle sets, in warehouse order.
func (t *Tables) sets() []*Tables { return slices.Compact(slices.Clone(t.wh)) }

// base returns the base table at position ord of TableNames.
func (t *Tables) base(ord int) *core.Table {
	switch ord {
	case ordWarehouse:
		return t.Warehouse
	case ordDistrict:
		return t.District
	case ordCustomer:
		return t.Customer
	case ordHistory:
		return t.History
	case ordNewOrder:
		return t.NewOrder
	case ordOrder:
		return t.Order
	case ordOrderLine:
		return t.OrderLine
	case ordItem:
		return t.Item
	case ordStock:
		return t.Stock
	}
	panic(fmt.Sprintf("tpcc: %s is not a base table", TableNames[ord]))
}

// createTables declares the TPC-C schema on db in the canonical order,
// with suffix appended to every table and index name. Every declaration
// goes through the schema catalog — tables and both secondary indexes are
// logged DDL — so a durable database recovered from its log reconstructs
// the whole schema by itself: the recovery side calls Handles, never
// createTables. The two index declarations are the wire-expressible spec
// forms (the customer-name index covering, the order-cust index
// transform-keyed), exactly as a client could request them over
// CREATE_INDEX frames. The returned set has no layout yet: Load and
// LoadSplit give it one.
func createTables(db *silo.DB, suffix string) *Tables {
	tbl := func(name string) *core.Table { return db.CreateTable(name + suffix) }
	ix := func(on *core.Table, name string, unique bool, spec []index.Seg, include ...index.Seg) *index.Index {
		i, err := db.CreateIndexSpec(0, on, name+suffix, unique, spec, include...)
		if err != nil {
			panic("tpcc: " + name + ": " + err.Error())
		}
		return i
	}
	t := &Tables{}
	t.Warehouse = tbl(TWarehouse)
	t.District = tbl(TDistrict)
	t.Customer = tbl(TCustomer)
	// Covering: entry values carry (balance, credit, first) so order-status
	// by name never resolves customer rows.
	t.CustomerName = ix(t.Customer, TCustomerName, false, CustomerNameIndexSpec(), CustomerNameIncludeSpec()...)
	t.History = tbl(THistory)
	t.NewOrder = tbl(TNewOrder)
	t.Order = tbl(TOrder)
	t.OrderCust = ix(t.Order, TOrderCust, true, OrderCustIndexSpec())
	t.OrderLine = tbl(TOrderLine)
	t.Item = tbl(TItem)
	t.Stock = tbl(TStock)
	return t
}

// shared lays t out as the one set of all sc.Warehouses warehouses.
func (t *Tables) shared(sc Scale) *Tables {
	t.wh = slices.Repeat([]*Tables{t}, sc.Warehouses)
	return t
}

// Handles resolves the TPC-C table and index handles of a database whose
// schema already exists — the lookup-side complement of Load, for
// databases recovered from a self-describing log — in the shared layout
// of sc.Warehouses warehouses. It panics on a missing table or index: a
// recovered TPC-C database that lacks part of the schema is a recovery
// bug, not a condition callers handle.
func Handles(db *silo.DB, sc Scale) *Tables {
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
	t := &Tables{
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
	return t.shared(sc)
}

// Load declares the schema on db (see createTables) and populates it at
// the given scale, committing in batches on worker 0. The initial
// population mirrors TPC-C 4.3.3 at the configured cardinalities: every
// customer has one initial order; the most recent third of orders per
// district are undelivered (present in new_order with no carrier),
// matching the standard's 900-of-3000 ratio.
func Load(db *silo.DB, sc Scale) *Tables {
	t := createTables(db, "").shared(sc)
	loadRows(db.Store(), t, sc)
	return t
}

// LoadSplit is Load on MemSilo+Split's layout (§5.4): each warehouse gets
// its own tables and indexes, declared by Load's createTables with names
// suffixed ".w", and its own replica of the item table; all are filled
// with Load's rows. It returns warehouse 1's set, whose layout reaches
// every warehouse's.
func LoadSplit(db *silo.DB, sc Scale) *Tables {
	wh := make([]*Tables, sc.Warehouses)
	for i := range wh {
		wh[i] = createTables(db, fmt.Sprintf(".%d", i+1))
	}
	for _, t := range wh {
		t.wh = wh
	}
	loadRows(db.Store(), wh[0], sc)
	return wh[0]
}

// loadRows inserts genRows' population into t's layout: each row into
// its warehouse's set, each item into every set.
func loadRows(s *core.Store, t *Tables, sc Scale) {
	batch := newBatcher(s.Worker(0), 256)
	sets := t.sets()
	genRows(sc, func(tbl, wh int, key, val []byte) {
		if wh == 0 {
			for _, set := range sets {
				batch.insert(set.base(tbl), key, val)
			}
			return
		}
		batch.insert(t.of(wh).base(tbl), key, val)
	})
	batch.flush()
}

// genRows draws the initial population from one seeded stream and hands
// each row to put with its table's position in TableNames and the
// warehouse that owns it. Items belong to no warehouse: they come with
// wh 0, and each store puts them into every set or partition it has. Both
// Silo layouts and Partitioned-Store load through here, so all three
// start from the same rows.
func genRows(sc Scale, put func(tbl, wh int, key, val []byte)) {
	rng := NewRNG(12345)

	// Items.
	var kb, vb []byte
	for i := 1; i <= sc.Items; i++ {
		it := Item{Price: uint64(rnd(rng, 100, 10000))}
		copy(it.Name[:], fmt.Sprintf("item-%d", i))
		copy(it.Data[:], "original-data")
		kb = ItemKey(kb, i)
		vb = it.Marshal(vb)
		put(ordItem, 0, kb, vb)
	}

	for wh := 1; wh <= sc.Warehouses; wh++ {
		wr := Warehouse{Tax: uint32(rnd(rng, 0, 2000)), YTD: 30000000}
		copy(wr.Name[:], fmt.Sprintf("wh-%d", wh))
		kb = WarehouseKey(kb, wh)
		vb = wr.Marshal(vb)
		put(ordWarehouse, wh, kb, vb)

		// Stock for every item.
		for i := 1; i <= sc.Items; i++ {
			st := Stock{Quantity: int32(rnd(rng, 10, 100))}
			copy(st.Data[:], "stock-data")
			for d := range st.Dist {
				copy(st.Dist[d][:], fmt.Sprintf("dist-%d-%d", d+1, i))
			}
			kb = StockKey(kb, wh, i)
			vb = st.Marshal(vb)
			put(ordStock, wh, kb, vb)
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
			put(ordDistrict, wh, kb, vb)

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
				put(ordCustomer, wh, kb, vb)

				// One initial history row.
				h := History{Amount: 1000, Date: 1}
				kb = HistoryKey(kb, wh, d, c, 0)
				vb = h.Marshal(vb)
				put(ordHistory, wh, kb, vb)
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
				put(ordOrder, wh, kb, vb)

				if !delivered {
					kb = NewOrderKey(kb, wh, d, o)
					put(ordNewOrder, wh, kb, NewOrderVal)
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
					put(ordOrderLine, wh, kb, vb)
				}
			}
		}
	}
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
