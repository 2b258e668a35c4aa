package tpcc

import (
	"fmt"

	"silo"
	"silo/internal/core"
	"silo/internal/partition"
)

// Partitioned-Store (§5.4) runs TPC-C partitioned by warehouse: each
// partition holds that warehouse's slice of every table, plus a replica of
// the read-only item table (as in H-Store). Figures 8 and 9 exercise 100%
// new-order; that is the only transaction implemented for this baseline,
// matching the paper's experiments.

// Partition-local table indexes.
const (
	ptWarehouse = iota
	ptDistrict
	ptCustomer
	ptNewOrder
	ptOrder
	ptOrderCust
	ptOrderLine
	ptItem
	ptStock
	numPartTables
)

// LoadPartitioned builds a partitioned store with one partition per
// warehouse.
func LoadPartitioned(sc Scale) *partition.Store {
	return loadPartitioned(sc, sc.Warehouses, func(wh int) int { return wh - 1 })
}

// LoadSinglePartition builds a store whose single partition holds every
// warehouse (Figure 9's fixed-size hotspot configuration: multiple workers
// serialize on one partition lock).
func LoadSinglePartition(sc Scale) *partition.Store {
	return loadPartitioned(sc, 1, func(int) int { return 0 })
}

func loadPartitioned(sc Scale, nparts int, partOf func(wh int) int) *partition.Store {
	s := partition.New(nparts, numPartTables)
	rng := NewRNG(12345)
	var kb, vb []byte
	for wh := 1; wh <= sc.Warehouses; wh++ {
		p := partOf(wh)
		// Item replica.
		for i := 1; i <= sc.Items; i++ {
			it := Item{Price: uint64(rnd(rng, 100, 10000))}
			copy(it.Name[:], fmt.Sprintf("item-%d", i))
			kb = ItemKey(kb, i)
			vb = it.Marshal(vb)
			s.Load(p, ptItem, kb, vb)
		}
		wr := Warehouse{Tax: uint32(rnd(rng, 0, 2000)), YTD: 30000000}
		kb = WarehouseKey(kb, wh)
		vb = wr.Marshal(vb)
		s.Load(p, ptWarehouse, kb, vb)
		for i := 1; i <= sc.Items; i++ {
			st := Stock{Quantity: int32(rnd(rng, 10, 100))}
			kb = StockKey(kb, wh, i)
			vb = st.Marshal(vb)
			s.Load(p, ptStock, kb, vb)
		}
		for d := 1; d <= sc.DistrictsPerWH; d++ {
			di := District{Tax: uint32(rnd(rng, 0, 2000)), YTD: 3000000, NextOID: 1}
			kb = DistrictKey(kb, wh, d)
			vb = di.Marshal(vb)
			s.Load(p, ptDistrict, kb, vb)
			for c := 1; c <= sc.CustomersPerDist; c++ {
				cu := Customer{Balance: -1000, Discount: uint32(rnd(rng, 0, 5000))}
				copy(cu.Credit[:], "GC")
				kb = CustomerKey(kb, wh, d, c)
				vb = cu.Marshal(vb)
				s.Load(p, ptCustomer, kb, vb)
			}
		}
	}
	return s
}

// PartClient issues new-order transactions against a partitioned store.
type PartClient struct {
	S    *partition.Store
	SC   Scale
	Cfg  ClientConfig
	Home int
	// SinglePartition maps every warehouse to partition 0 (pair with
	// LoadSinglePartition; Figure 9).
	SinglePartition bool
	// Commits counts completed transactions (partitioned transactions
	// never abort; rollbacks still count as work done, mirroring how the
	// paper's Partitioned-Store always commits once locks are held).
	Commits   uint64
	Rollbacks uint64

	rng  *RNG
	kb   []byte
	vb   []byte
	date uint64
}

// NewPartClient builds a partitioned-store client.
func NewPartClient(s *partition.Store, sc Scale, home int, cfg ClientConfig, seed uint64) *PartClient {
	return &PartClient{S: s, SC: sc, Cfg: cfg, Home: home, rng: NewRNG(seed)}
}

// NewOrder runs one new-order transaction: acquire the partition locks of
// the home warehouse and every remote supply warehouse (sorted), then
// execute without any further concurrency control.
func (c *PartClient) NewOrder() {
	d := rnd(c.rng, 1, c.SC.DistrictsPerWH)
	cid := CustomerID(c.rng, c.SC.CustomersPerDist)
	olCnt := rnd(c.rng, 5, 15)
	rollback := c.Cfg.RollbackPct > 0 && c.rng.Intn(100) < c.Cfg.RollbackPct

	var items [15]noItem
	parts := make([]int, 0, 16)
	parts = append(parts, c.partOf(c.Home))
	for i := 0; i < olCnt; i++ {
		it := &items[i]
		it.id = ItemID(c.rng, c.SC.Items)
		it.supplyW = c.Home
		it.qty = rnd(c.rng, 1, 10)
		if c.SC.Warehouses > 1 && c.rng.Intn(100) < c.Cfg.RemoteItemPct {
			it.supplyW = c.otherWarehousePart()
			it.remote = true
			parts = append(parts, c.partOf(it.supplyW))
		}
	}
	if rollback {
		items[olCnt-1].id = c.SC.Items + 1
	}
	c.date++

	home := c.partOf(c.Home)
	c.S.Run(parts, func(tx *partition.Tx) {
		var wh Warehouse
		c.kb = WarehouseKey(c.kb, c.Home)
		wh.Unmarshal(tx.Get(home, ptWarehouse, c.kb))

		var di District
		c.kb = DistrictKey(c.kb, c.Home, d)
		dv := tx.Get(home, ptDistrict, c.kb)
		di.Unmarshal(dv)
		oid := int(di.NextOID)
		di.NextOID++
		c.vb = di.Marshal(c.vb)
		tx.Put(home, ptDistrict, c.kb, c.vb)

		var cu Customer
		c.kb = CustomerKey(c.kb, c.Home, d, cid)
		cu.Unmarshal(tx.Get(home, ptCustomer, c.kb))

		ord := Order{CID: uint32(cid), EntryDate: c.date, OLCount: uint32(olCnt), AllLocal: 1}
		c.kb = OrderKey(c.kb, c.Home, d, oid)
		c.vb = ord.Marshal(c.vb)
		tx.Put(home, ptOrder, c.kb, c.vb)
		c.kb = NewOrderKey(c.kb, c.Home, d, oid)
		tx.Put(home, ptNewOrder, c.kb, NewOrderVal)

		for i := 0; i < olCnt; i++ {
			it := &items[i]
			c.kb = ItemKey(c.kb, it.id)
			iv := tx.Get(home, ptItem, c.kb)
			if iv == nil {
				// Intentional rollback: Partitioned-Store has no undo, so
				// the H-Store model simply stops applying (single-threaded
				// within the locks, the partial effects mirror H-Store's
				// "abort by compensation" cost being negligible here).
				c.Rollbacks++
				return
			}
			var item Item
			item.Unmarshal(iv)

			var st Stock
			c.kb = StockKey(c.kb, it.supplyW, it.id)
			sp := c.partOf(it.supplyW)
			st.Unmarshal(tx.Get(sp, ptStock, c.kb))
			if st.Quantity >= int32(it.qty)+10 {
				st.Quantity -= int32(it.qty)
			} else {
				st.Quantity = st.Quantity - int32(it.qty) + 91
			}
			st.YTD += uint64(it.qty)
			st.OrderCnt++
			if it.remote {
				st.RemoteCnt++
			}
			c.vb = st.Marshal(c.vb)
			tx.Put(sp, ptStock, c.kb, c.vb)

			line := OrderLine{
				ItemID:    uint32(it.id),
				SupplyWID: uint32(it.supplyW),
				Quantity:  uint32(it.qty),
				Amount:    uint64(it.qty) * item.Price,
			}
			c.kb = OrderLineKey(c.kb, c.Home, d, oid, i+1)
			c.vb = line.Marshal(c.vb)
			tx.Put(home, ptOrderLine, c.kb, c.vb)
		}
		c.Commits++
	})
}

func (c *PartClient) partOf(wh int) int {
	if c.SinglePartition {
		return 0
	}
	return wh - 1
}

func (c *PartClient) otherWarehousePart() int {
	for {
		w := rnd(c.rng, 1, c.SC.Warehouses)
		if w != c.Home || c.SC.Warehouses == 1 {
			return w
		}
	}
}

// ---- MemSilo+Split (§5.4): Silo with physically split tables ----

// SplitTables holds per-warehouse tables in a core store: the same physical
// split as Partitioned-Store, but running Silo's full commit protocol.
// Figure 8 uses it to separate the benefit of smaller trees from the
// benefit of dropping concurrency control.
type SplitTables struct {
	SC Scale
	// per warehouse (index 0 = warehouse 1)
	Warehouse []*core.Table
	District  []*core.Table
	Customer  []*core.Table
	NewOrder  []*core.Table
	Order     []*core.Table
	OrderLine []*core.Table
	Item      []*core.Table
	Stock     []*core.Table
}

// LoadSplit creates per-warehouse tables on db (logged catalog records,
// like Load's) and populates them.
func LoadSplit(db *silo.DB, sc Scale) *SplitTables {
	t := &SplitTables{SC: sc}
	mk := func(name string, wh int) *core.Table {
		return db.CreateTable(fmt.Sprintf("%s.%d", name, wh))
	}
	rng := NewRNG(12345)
	batch := newBatcher(db.Store().Worker(0), 256)
	var kb, vb []byte
	for wh := 1; wh <= sc.Warehouses; wh++ {
		t.Warehouse = append(t.Warehouse, mk(TWarehouse, wh))
		t.District = append(t.District, mk(TDistrict, wh))
		t.Customer = append(t.Customer, mk(TCustomer, wh))
		t.NewOrder = append(t.NewOrder, mk(TNewOrder, wh))
		t.Order = append(t.Order, mk(TOrder, wh))
		t.OrderLine = append(t.OrderLine, mk(TOrderLine, wh))
		t.Item = append(t.Item, mk(TItem, wh))
		t.Stock = append(t.Stock, mk(TStock, wh))
		p := wh - 1

		for i := 1; i <= sc.Items; i++ {
			it := Item{Price: uint64(rnd(rng, 100, 10000))}
			kb = ItemKey(kb, i)
			vb = it.Marshal(vb)
			batch.insert(t.Item[p], kb, vb)
		}
		wr := Warehouse{Tax: uint32(rnd(rng, 0, 2000))}
		kb = WarehouseKey(kb, wh)
		vb = wr.Marshal(vb)
		batch.insert(t.Warehouse[p], kb, vb)
		for i := 1; i <= sc.Items; i++ {
			st := Stock{Quantity: int32(rnd(rng, 10, 100))}
			kb = StockKey(kb, wh, i)
			vb = st.Marshal(vb)
			batch.insert(t.Stock[p], kb, vb)
		}
		for d := 1; d <= sc.DistrictsPerWH; d++ {
			di := District{Tax: uint32(rnd(rng, 0, 2000)), NextOID: 1}
			kb = DistrictKey(kb, wh, d)
			vb = di.Marshal(vb)
			batch.insert(t.District[p], kb, vb)
			for c := 1; c <= sc.CustomersPerDist; c++ {
				cu := Customer{Balance: -1000}
				copy(cu.Credit[:], "GC")
				kb = CustomerKey(kb, wh, d, c)
				vb = cu.Marshal(vb)
				batch.insert(t.Customer[p], kb, vb)
			}
		}
	}
	batch.flush()
	return t
}

// SplitClient runs new-order against MemSilo+Split.
type SplitClient struct {
	T    *SplitTables
	SC   Scale
	W    *core.Worker
	Cfg  ClientConfig
	Home int

	Commits   uint64
	Conflicts uint64
	Rollbacks uint64

	rng  *RNG
	kb   []byte
	vb   []byte
	date uint64
}

// NewSplitClient builds a MemSilo+Split client.
func NewSplitClient(t *SplitTables, w *core.Worker, home int, cfg ClientConfig, seed uint64) *SplitClient {
	return &SplitClient{T: t, SC: t.SC, W: w, Cfg: cfg, Home: home, rng: NewRNG(seed)}
}

// NewOrder runs one new-order attempt; core.ErrConflict reports an abort.
func (c *SplitClient) NewOrder() error {
	d := rnd(c.rng, 1, c.SC.DistrictsPerWH)
	cid := CustomerID(c.rng, c.SC.CustomersPerDist)
	olCnt := rnd(c.rng, 5, 15)
	rollback := c.Cfg.RollbackPct > 0 && c.rng.Intn(100) < c.Cfg.RollbackPct

	var items [15]noItem
	for i := 0; i < olCnt; i++ {
		it := &items[i]
		it.id = ItemID(c.rng, c.SC.Items)
		it.supplyW = c.Home
		it.qty = rnd(c.rng, 1, 10)
		if c.SC.Warehouses > 1 && c.rng.Intn(100) < c.Cfg.RemoteItemPct {
			for {
				w := rnd(c.rng, 1, c.SC.Warehouses)
				if w != c.Home {
					it.supplyW = w
					break
				}
			}
			it.remote = true
		}
	}
	if rollback {
		items[olCnt-1].id = c.SC.Items + 1
	}
	c.date++
	home := c.Home - 1

	err := c.W.RunOnce(func(tx *core.Tx) error {
		var wh Warehouse
		c.kb = WarehouseKey(c.kb, c.Home)
		v, err := tx.Get(c.T.Warehouse[home], c.kb)
		if err != nil {
			return err
		}
		wh.Unmarshal(v)

		var di District
		c.kb = DistrictKey(c.kb, c.Home, d)
		v, err = tx.Get(c.T.District[home], c.kb)
		if err != nil {
			return err
		}
		di.Unmarshal(v)
		oid := int(di.NextOID)
		di.NextOID++
		c.vb = di.Marshal(c.vb)
		if err := tx.Put(c.T.District[home], c.kb, c.vb); err != nil {
			return err
		}

		var cu Customer
		c.kb = CustomerKey(c.kb, c.Home, d, cid)
		v, err = tx.Get(c.T.Customer[home], c.kb)
		if err != nil {
			return err
		}
		cu.Unmarshal(v)

		ord := Order{CID: uint32(cid), EntryDate: c.date, OLCount: uint32(olCnt), AllLocal: 1}
		c.kb = OrderKey(c.kb, c.Home, d, oid)
		c.vb = ord.Marshal(c.vb)
		if err := tx.Insert(c.T.Order[home], c.kb, c.vb); err != nil {
			return err
		}
		c.kb = NewOrderKey(c.kb, c.Home, d, oid)
		if err := tx.Insert(c.T.NewOrder[home], c.kb, NewOrderVal); err != nil {
			return err
		}

		for i := 0; i < olCnt; i++ {
			it := &items[i]
			var item Item
			c.kb = ItemKey(c.kb, it.id)
			v, err := tx.Get(c.T.Item[home], c.kb)
			if err == core.ErrNotFound {
				return ErrRollback
			}
			if err != nil {
				return err
			}
			item.Unmarshal(v)

			var st Stock
			sp := it.supplyW - 1
			c.kb = StockKey(c.kb, it.supplyW, it.id)
			v, err = tx.Get(c.T.Stock[sp], c.kb)
			if err != nil {
				return err
			}
			st.Unmarshal(v)
			if st.Quantity >= int32(it.qty)+10 {
				st.Quantity -= int32(it.qty)
			} else {
				st.Quantity = st.Quantity - int32(it.qty) + 91
			}
			st.YTD += uint64(it.qty)
			st.OrderCnt++
			if it.remote {
				st.RemoteCnt++
			}
			c.vb = st.Marshal(c.vb)
			if err := tx.Put(c.T.Stock[sp], c.kb, c.vb); err != nil {
				return err
			}

			line := OrderLine{
				ItemID:    uint32(it.id),
				SupplyWID: uint32(it.supplyW),
				Quantity:  uint32(it.qty),
				Amount:    uint64(it.qty) * item.Price,
			}
			c.kb = OrderLineKey(c.kb, c.Home, d, oid, i+1)
			c.vb = line.Marshal(c.vb)
			if err := tx.Insert(c.T.OrderLine[home], c.kb, c.vb); err != nil {
				return err
			}
		}
		return nil
	})
	switch err {
	case nil:
		c.Commits++
	case core.ErrConflict:
		c.Conflicts++
	case ErrRollback:
		c.Rollbacks++
	}
	return err
}
